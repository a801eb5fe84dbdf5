"""Config parsing, report/CSV output, and command-line exit codes."""

import csv
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from torus_phi4 import (DynamicsConfig, FourierField, ModeLattice, NoisePath,
                        evolve, linear_distance, lockstep, mass,
                        mode_variance_sum, sample_gff, sample_gibbs_pcn_chains,
                        wick_potential)
from torus_phi4 import experiments
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


# the plumbing tests run the `tensors` suite: it is deterministic (no seed
# enters it) and takes a few seconds, where `kernels` takes about 16 s and
# criterion 11 already runs it
def test_verify_suite_report_structure(tmp_path):
    rep = cmd_verify({"suite": "tensors"}, seed=0, out_dir=tmp_path)
    assert rep["passed"] is True
    assert rep["suites"]["tensors"]["runtime_s"] >= 0
    assert (tmp_path / "verify.json").exists()


def test_cli_exit_zero_on_passing_suite(tmp_path, capsys):
    cfg_file = tmp_path / "v.cfg"
    cfg_file.write_text("suite = tensors\n")
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


def test_benchmark_configs_parse_as_they_are(monkeypatch):
    # the benchmark runs these dicts unchanged: each must keep parsing, with
    # every value kept (an int for a float field only changes its type)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    for cls, cfg in ((experiments._InvarianceConfig, workloads.EQUILIBRIUM),
                     (experiments._InviscidConfig, workloads.INVISCID),
                     (experiments._SmoothingConfig, workloads.SMOOTHING)):
        conf = experiments._parse(cls, dict(cfg), "benchmark")
        for key, value in cfg.items():
            got = getattr(conf, key)
            assert (list(got) if isinstance(got, tuple) else got) == value, key


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


_BAD_BASE = {  # small valid configs that each bad line below overrides
    "invariance": "ensemble = 4\nn_cut = 2\nchain_steps = 10\nn_steps = 10\n"
                  "horizon = 0.01\n",
    "inviscid": "ensemble = 2\nn_cut = 2\nn_steps = 10\nhorizon = 0.01\n"
                "gammas = [0.5]\n",
    "smoothing": "ensemble = 2\nn_cuts = [2, 4]\nhorizon = 0.01\n",
}


def _bad(command, line):
    return pytest.param(command, line, id=line if command == "invariance"
                        else f"{command}: {line}")


@pytest.mark.parametrize("command, bad", [
    _bad("invariance", line) for line in (
        "ensemble = 1", "ensemble = 0", "beta = 1.5", "beta = 0",
        "chain_steps = 0", "chain_steps = -5", "n_cut = 3.7", "n_steps = 20.9",
        "n_steps = 0", "gamma = -0.5", "horizon = 0", "z_max = NaN")
] + [
    _bad("inviscid", line) for line in (
        "ensemble = true", "gammas = 0.5", "gammas = []", "amplitude = [1]",
        "n_steps = 0", "renormalization = foo", "gammas = [0.5, -0.1]")
] + [
    _bad("smoothing", line) for line in (
        "n_cuts = [8]", "n_cuts = [4, 4]", "steps_per_unit_sq = 0",
        "n_cuts = [8.0, 16.0]", "gamma = -0.5")
])
def test_cli_exit_two_on_bad_invariance_config(tmp_path, capsys, command, bad):
    # named for its first rows, it covers every command's config: an
    # ill-typed or out-of-range value, a damping or drift no flow has, or
    # beta outside (0, 1] or an empty chain (no pCN sampler) each stops
    # before any report is written, on one line of standard error
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(_BAD_BASE[command] + bad + "\n")
    assert main([command, "--config", str(cfg_file),
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_invariance_gate_fails_on_a_non_finite_observable(monkeypatch):
    # a NaN member makes every standard error NaN; the gate once read
    # those as z = 0 and passed
    def poisoned(*args):
        for k, c in enumerate(lockstep(*args)):
            if k:
                c = c.copy()
                c[0] = np.nan
            yield c

    cfg = {"n_cut": 2, "ensemble": 4, "chain_steps": 20, "n_steps": 20,
           "horizon": 0.1}
    assert cmd_invariance(dict(cfg))["passed"] is True
    monkeypatch.setattr(experiments, "lockstep", poisoned)
    rep = cmd_invariance(dict(cfg))
    assert rep["passed"] is False and np.isnan(rep["worst_abs_z"])


# -- lockstep commands against their per-member oracles ----------------------
# The oracles are the commands' former bodies: one `evolve` run per member
# (and per gamma), with each member's path from NoisePath.generate.

def _inviscid_oracle(cfg, seed):
    lattice = ModeLattice(cfg["n_cut"])
    wt = lattice.brackets.astype(float) ** (2.0 * cfg["s_metric"])
    gammas, ens = cfg["gammas"], cfg["ensemble"]
    dists = np.zeros((ens, len(gammas)))
    for m in range(ens):
        path_seed = int(np.random.SeedSequence([seed, 7, m]).generate_state(1)[0])
        path = NoisePath.generate(lattice, cfg["horizon"], cfg["n_steps"], path_seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 8, m]))
        phi = FourierField(lattice, cfg["amplitude"] * sample_gff(lattice, rng).coeffs)
        ref = evolve(phi, path, DynamicsConfig(0.0, cfg["renormalization"]))
        for j, g in enumerate(gammas):
            traj = evolve(phi, path, DynamicsConfig(float(g), cfg["renormalization"]))
            diff2 = (np.abs(traj.coeffs - ref.coeffs) ** 2 * wt[None, :]).sum(axis=1)
            dists[m, j] = np.sqrt(diff2.max())
    return dists.mean(axis=0), dists.std(axis=0, ddof=1) / np.sqrt(ens)


@pytest.mark.parametrize("renormalization", ["wick", "dynamic"])
def test_inviscid_equals_per_member_oracle(renormalization):
    cfg = {"n_cut": 3, "ensemble": 3, "horizon": 0.1, "n_steps": 40,
           "gammas": [0.5, 0.1, 0.02], "s_metric": -0.25, "amplitude": 0.7,
           "renormalization": renormalization}
    rep = cmd_inviscid(dict(cfg), seed=4)
    mean_d, se_d = _inviscid_oracle(cfg, seed=4)
    assert rep["mean_distances"] == mean_d.tolist()
    assert rep["stderr"] == se_d.tolist()
    for key in ("n_steps", "renormalization", "s_metric", "amplitude"):
        assert rep[key] == cfg[key]
    floor = [linear_distance(ModeLattice(3), g, 0.1, -0.25, 0.7) for g in cfg["gammas"]]
    assert rep["linear_floor"] == {"distances": floor, "ratio": floor[-1] / floor[0]}


def _invariance_oracle(cfg, seed):
    n_cut, ens, n_steps = cfg["n_cut"], cfg["ensemble"], cfg["n_steps"]
    lattice = ModeLattice(n_cut)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    pcn = sample_gibbs_pcn_chains(lattice, "wick", ens, rng, beta=cfg["beta"],
                                  n_steps=cfg["chain_steps"])
    dyn = DynamicsConfig(cfg["gamma"], "wick")
    checkpoints = (0, n_steps // 2, n_steps)
    obs = np.empty((3, ens, lattice.n_modes + 2))
    for m in range(ens):
        sd = int(np.random.SeedSequence([seed, 202, m]).generate_state(1)[0])
        path = NoisePath.generate(lattice, cfg["horizon"], n_steps, seed=sd)
        traj = evolve(pcn.fields[m], path, dyn)
        for j, k in enumerate(checkpoints):
            u = FourierField(lattice, traj.coeffs[k])
            obs[j, m, :lattice.n_modes] = np.abs(u.coeffs) ** 2
            obs[j, m, -2] = wick_potential(u)
            obs[j, m, -1] = mass(u)
    zs = []
    for j in (1, 2):
        diff = obs[j] - obs[0]
        se = diff.std(axis=0, ddof=1) / np.sqrt(ens)
        zs.append(np.where(se > 0, diff.mean(axis=0) / np.maximum(se, 1e-300), 0.0))
    return np.concatenate(zs), pcn.acceptance_rate


def test_invariance_equals_per_member_oracle(tmp_path):
    cfg = {"n_cut": 2, "ensemble": 5, "chain_steps": 60, "beta": 0.2,
           "n_steps": 21, "horizon": 0.1, "gamma": 0.5}
    rep = cmd_invariance(dict(cfg), seed=6, out_dir=tmp_path)
    z, acceptance = _invariance_oracle(cfg, seed=6)
    with open(tmp_path / "invariance_zscores.csv") as fh:
        got = [float(r["z"]) for r in csv.DictReader(fh)]
    assert got == z.tolist()
    assert rep["worst_abs_z"] == float(np.abs(z).max())
    assert rep["acceptance_rate"] == acceptance
    for key in ("n_steps", "chain_steps", "beta"):
        assert rep[key] == cfg[key]
    assert rep["sigma"] == mode_variance_sum(2)
