"""Config parsing, report/CSV output, and command-line exit codes."""

import csv
import json

import numpy as np
import pytest

from torus_phi4.cli import main
from torus_phi4.experiments import (config_hash, load_config, write_report,
                                    cmd_invariance, cmd_inviscid,
                                    cmd_smoothing, cmd_verify)


def test_load_config_parses_json_fragments(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "n_cut = 4\n"
        "gamma = 0.25          # inline comment\n"
        "gammas = [0.5, 0.25]\n"
        "suite = kernels\n"
        "\n"
        "# full-line comment\n"
        "flag = true\n")
    cfg = load_config(cfg_file)
    assert cfg == {"n_cut": 4, "gamma": 0.25, "gammas": [0.5, 0.25],
                   "suite": "kernels", "flag": True}


def test_load_config_none_is_empty():
    assert load_config(None) == {}


def test_load_config_rejects_malformed_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("this line has no equals sign\n")
    with pytest.raises(ValueError):
        load_config(cfg_file)


def test_config_hash_stable_and_order_independent():
    a = config_hash({"x": 1, "y": [2, 3]})
    b = config_hash({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 16
    assert config_hash({"x": 2, "y": [2, 3]}) != a


def test_write_report_round_trip(tmp_path):
    report = {"experiment": "demo", "passed": True,
              "values": [1.0, float(np.float64(2.5))]}
    path = write_report(report, tmp_path, "demo")
    assert path == tmp_path / "demo.json"
    assert json.loads(path.read_text()) == report


def test_verify_kernels_report_structure(tmp_path):
    rep = cmd_verify({"suite": "kernels"}, seed=0, out_dir=tmp_path)
    assert rep["passed"] is True
    assert rep["suites"]["kernels"]["runtime_s"] >= 0
    assert (tmp_path / "verify.json").exists()


def test_cli_exit_zero_on_passing_suite(tmp_path, capsys):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("suite = kernels\n")
    code = main(["verify", "--config", str(cfg_file), "--seed", "3",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True and report["seed"] == 3
    assert (tmp_path / "out" / "verify.json").exists()


def test_cli_exit_two_on_unknown_command():
    assert main(["no-such-command"]) == 2


def test_cli_exit_two_on_missing_config(tmp_path):
    assert main(["verify", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_cli_exit_two_on_unknown_suite(tmp_path):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("suite = not_a_suite\n")
    assert main(["verify", "--config", str(cfg_file)]) == 2


def test_cli_invariance_csv_output(tmp_path, capsys):
    cfg_file = tmp_path / "inv.cfg"
    # deliberately tiny: this checks plumbing, not the statistical gate
    cfg_file.write_text("ensemble = 8\nn_steps = 64\nchain_steps = 400\n"
                        "n_cut = 2\nhorizon = 0.25\n")
    code = main(["invariance", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")])
    assert code in (0, 1)
    capsys.readouterr()
    with open(tmp_path / "out" / "invariance_zscores.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"time", "observable", "z", "mean_diff", "stderr"} <= set(rows[0])
    assert any(r["observable"] == "mass" for r in rows)
    report = json.loads((tmp_path / "out" / "invariance.json").read_text())
    assert report["ensemble"] == 8


@pytest.mark.parametrize("command, cfg", [
    (cmd_inviscid, {"ensembel": 2, "n_steps": 10, "horizon": 0.01,
                    "n_cut": 2, "gammas": [0.5]}),
    (cmd_invariance, {"ensembel": 2, "n_cut": 2}),
    (cmd_smoothing, {"ensembel": 2, "n_cuts": [8]}),
    (cmd_verify, {"suite": "kernels", "ensembel": 2}),
])
def test_unknown_config_key_is_rejected(command, cfg):
    with pytest.raises(ValueError, match=r"\['ensembel'\]; accepted: \[.*'"):
        command(cfg)


def test_cli_exit_two_on_unknown_config_key(tmp_path, capsys):
    cfg_file = tmp_path / "inv.cfg"
    cfg_file.write_text("ensembel = 2\nn_steps = 10\nhorizon = 0.01\n"
                        "n_cut = 2\ngammas = [0.5]\n")
    assert main(["inviscid", "--config", str(cfg_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ensembel" in captured.err


def test_cli_exit_two_on_mass_blowup(tmp_path, capsys):
    cfg_file = tmp_path / "inv.cfg"
    # h = 0.2 is far beyond the explicit substep's stability limit
    cfg_file.write_text("ensemble = 2\nn_cut = 2\nchain_steps = 10\n"
                        "n_steps = 10\n")
    assert main(["invariance", "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "mass blow-up at step" in lines[0]
    assert not (tmp_path / "out" / "invariance.json").exists()
