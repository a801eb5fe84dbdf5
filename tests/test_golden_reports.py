"""Seeded reports of the experiment commands against stored golden values.

`golden_reports.json` holds the reports of `cmd_invariance`, `cmd_inviscid`
and `cmd_smoothing` (and the invariance z-scores) at the small configs
below, as the code computed them before the transform core and the
per-mode norms moved to real arithmetic.  A change that only reorders
floating point work must reproduce every number to GOLDEN_RTOL, and the
pCN acceptance rates bit for bit, since the proposals and the accept rule
do not go through that arithmetic.  A change meant to move the numbers
rewrites the file, on purpose, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import pytest

from torus_phi4.experiments import cmd_invariance, cmd_inviscid, cmd_smoothing

GOLDEN = Path(__file__).with_name("golden_reports.json")
GOLDEN_RTOL = 1e-12

# (command, config, seed); cutoffs 2, 4 and 8 transform by DFT matrices, 17 by FFTs
CASES = {
    "invariance": (cmd_invariance, {"n_cut": 4, "ensemble": 8, "chain_steps": 300,
                                    "beta": 0.2, "n_steps": 40, "horizon": 0.2}, 3),
    "invariance_n2": (cmd_invariance, {"n_cut": 2, "ensemble": 6, "chain_steps": 200,
                                       "beta": 0.3, "n_steps": 30, "horizon": 0.3,
                                       "gamma": 0.25}, 11),
    "inviscid_wick": (cmd_inviscid, {"n_cut": 4, "ensemble": 3, "horizon": 0.2,
                                     "n_steps": 100, "gammas": [0.5, 0.1, 0.02]}, 5),
    "inviscid_dynamic": (cmd_inviscid, {"n_cut": 4, "ensemble": 3, "horizon": 0.2,
                                        "n_steps": 100, "gammas": [0.5, 0.1, 0.02],
                                        "amplitude": 0.7, "renormalization": "dynamic"}, 6),
    "smoothing": (cmd_smoothing, {"n_cuts": [4, 8, 17], "ensemble": 2,
                                  "horizon": 0.0625}, 2),
    "smoothing_damped": (cmd_smoothing, {"n_cuts": [4, 8, 17], "ensemble": 2,
                                         "horizon": 0.0625, "gamma": 0.5}, 4),
}


def _run(name):
    """The case's report as JSON reads it back, with the invariance z-scores."""
    cmd, cfg, seed = CASES[name]
    with tempfile.TemporaryDirectory() as out:
        report = json.loads(json.dumps(cmd(dict(cfg), seed=seed, out_dir=out), default=float))
        zfile = Path(out) / "invariance_zscores.csv"
        if zfile.exists():
            with open(zfile) as fh:
                report["zscores"] = [float(r["z"]) for r in csv.DictReader(fh)]
    return report


def _assert_matches(got, want, where):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not where.endswith("acceptance_rate"):
        assert isinstance(got, float), where
        if math.isnan(want):
            assert math.isnan(got), where
        else:
            assert abs(got - want) <= GOLDEN_RTOL * abs(want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    _assert_matches(_run(name), golden[name], name)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: _run(name) for name in sorted(CASES)}, indent=1) + "\n")
