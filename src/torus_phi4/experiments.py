"""Batch experiment harness with seeded reproducibility.

Each experiment is a pure function of a flat key-value configuration plus a
master seed, and returns a JSON-serializable report with a ``passed`` flag.
The command-line front end in :mod:`torus_phi4.cli` wraps these functions.

Config files are flat ``key = value`` text files; values are parsed as JSON
fragments when possible (numbers, lists) and kept as strings otherwise.
Each command reads its keys into one frozen dataclass, the reference for
their types and defaults (`_InvarianceConfig`, `_InviscidConfig`,
`_SmoothingConfig`, `_VerifyConfig`); an unknown key or an ill-typed or
out-of-range value raises ValueError, so a typo cannot run unseen.
Every report embeds the package version, the master seed, and a hash of the
resolved configuration, so outputs are traceable to their inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .spectral import ModeLattice, FourierField
from .nonlinearity import mass as field_mass
from .gibbs import mode_variance_sum, sample_gff, sample_gibbs_pcn_chains, \
    wick_potential
from .noise import NoisePath, lockstep_increments
from .flows import DynamicsConfig, evolve, lockstep, picard_remainder, \
    extract_remainder, linear_distance, linear_evolution
from .objects import regularity_scan
from .chaos import CellGrid, ChaosKernel, multi_integral, kernel_inner, \
    symmetrize
from .xsb import symbol_decay_sweep, symbol_lipschitz_sweep, l4_ratio_scan
from .counting import CountQuery, count_set, verify_tensor_bounds

__all__ = [
    "load_config",
    "config_hash",
    "cmd_invariance",
    "cmd_inviscid",
    "cmd_smoothing",
    "cmd_verify",
    "write_report",
]


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def load_config(path: str | Path | None) -> dict:
    """Parse a flat ``key = value`` config file; values are decoded as JSON
    fragments when possible."""
    cfg: dict = {}
    if path is None:
        return cfg
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        try:
            cfg[key] = json.loads(val)
        except json.JSONDecodeError:
            cfg[key] = val
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


_KINDS = {  # field type -> (accepts a value other than a bool, what it takes)
    int: (lambda v: isinstance(v, numbers.Integral), "an int"),
    float: (lambda v: isinstance(v, numbers.Real) and math.isfinite(v),
            "a finite number"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _parse(cls, cfg: dict, command: str):
    """cls(**cfg), once each key names a field and each value has its type
    (an int for a float field is converted; a tuple field takes a non-empty
    list); raises ValueError otherwise."""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(cfg) - set(hints))
    if unknown:
        raise ValueError(f"unknown config key(s) for {command}: {unknown}; "
                         f"accepted: {sorted(hints)}")
    values = {}
    for key, value in cfg.items():
        seq = typing.get_origin(hints[key]) is tuple
        kind = typing.get_args(hints[key])[0] if seq else hints[key]
        ok, what = _KINDS[kind]
        items = value if seq else [value]
        if not (isinstance(items, list) and items and all(
                ok(v) and not isinstance(v, bool) for v in items)):
            what = f"a non-empty list, each {what}" if seq else what
            raise ValueError(f"config key {key!r} for {command} takes {what}, "
                             f"got {value!r}")
        values[key] = tuple(map(kind, items)) if seq else kind(value)
    return cls(**values)


_RANGES = {  # field -> (holds, what a command needs of it)
    "ensemble": (lambda v: v >= 2, "ensemble must be >= 2 for its standard errors"),
    "n_steps": (lambda v: v >= 1, "n_steps must be >= 1"),
    "horizon": (lambda v: v > 0, "horizon must be > 0"),
    "steps_per_unit_sq": (lambda v: v > 0, "steps_per_unit_sq must be > 0"),
    "n_cuts": (lambda v: len(set(v)) >= 2, "n_cuts must hold 2 distinct cutoffs"),
}


class _Config:
    """Base of the command configs: checks `_RANGES` on the fields it has.
    Physics ranges are checked where they are used: the cutoff by
    ModeLattice, the pCN step by the sampler, the damping by the check
    DynamicsConfig and regularity_scan share, and the drift by
    DynamicsConfig."""

    def __post_init__(self):
        for name, (holds, what) in _RANGES.items():
            value = getattr(self, name, None)
            if value is not None and not holds(value):
                raise ValueError(f"{what}, got {value!r}")


def _stamp(report: dict, cfg: dict, seed: int) -> dict:
    report["version"] = __version__
    report["seed"] = seed
    report["config_hash"] = config_hash(cfg)
    report["config"] = cfg
    return report


def write_report(report: dict, out_dir: str | Path, name: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, default=float))
    return path


def _write_csv(rows: list[dict], out_dir: str | Path, name: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    return path


def _ensemble(lattice, data, dyn, horizon, n_steps, key):
    """Yield the `lockstep` states of a (members, n_modes) data stack.

    Member m is driven by the path seeded by SeedSequence([*key, m]), over
    n_steps steps to `horizon`.  A damping axis in `dyn.gamma` ahead of the
    member axis stacks rows that share each member's data and path.
    """
    seeds = [int(np.random.SeedSequence([*key, m]).generate_state(1)[0])
             for m in range(len(data))]
    yield from lockstep(FourierField(lattice, data),
                        lockstep_increments(lattice, horizon, n_steps, seeds),
                        horizon / n_steps, dyn)


def _mean_se(x):
    """Mean and standard error over the members, the leading axis of x."""
    return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(len(x))


# ---------------------------------------------------------------------------
# invariance experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _InvarianceConfig(_Config):
    n_cut: int = 4
    gamma: float = 0.5
    ensemble: int = 512
    horizon: float = 2.0
    n_steps: int = 800
    z_max: float = 3.0
    beta: float = 0.1
    chain_steps: int = 20_000


def cmd_invariance(cfg: dict, seed: int = 0, out_dir=None) -> dict:
    """Stationarity test: sample the Wick-pairing Gibbs measure, evolve each
    member under the Wick-renormalized stochastic flow with fresh noise, and
    compare ensemble observables at t in {0, T/2, T} by paired z-scores.

    Observables: per-mode second moments E|u_hat(n)|^2, the mean Wick
    quartic potential, and the mean mass.  All |z| <= z_max is the pass
    condition; a non-finite observable fails it.  Keys: `_InvarianceConfig`.
    """
    conf = _parse(_InvarianceConfig, cfg, "invariance")
    n_cut, ensemble, horizon, n_steps = (conf.n_cut, conf.ensemble,
                                         conf.horizon, conf.n_steps)
    lattice = ModeLattice(n_cut)
    sigma = mode_variance_sum(n_cut)

    # checked before the pCN sweep, so a bad damping costs no sampling
    dyn = DynamicsConfig(gamma=conf.gamma, renormalization="wick")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 101]))
    # one independent chain per ensemble member: the paired z-test below
    # assumes independent members, which thinned single-chain states do
    # not deliver in this slowly mixing regime
    pcn = sample_gibbs_pcn_chains(lattice, "wick", ensemble, rng, beta=conf.beta,
                                  n_steps=conf.chain_steps)
    checkpoints = (0, n_steps // 2, n_steps)
    obs = np.empty((len(checkpoints), ensemble, lattice.n_modes + 2))
    steps = _ensemble(lattice, pcn.samples, dyn, horizon, n_steps, (seed, 202))
    for k, c in enumerate(steps):
        for j in (j for j, kc in enumerate(checkpoints) if kc == k):
            u = FourierField(lattice, c)
            obs[j, :, :lattice.n_modes] = np.abs(c) ** 2
            obs[j, :, -2] = wick_potential(u)
            obs[j, :, -1] = field_mass(u)

    zrows = []
    worst = 0.0
    labels = [f"mode_{n0}_{n1}" for n0, n1 in lattice.modes] + \
        ["wick_potential", "mass"]
    for j, k in enumerate(checkpoints[1:], start=1):
        mean, se = _mean_se(obs[j] - obs[0])
        z = np.where(se > 0, mean / np.maximum(se, 1e-300), 0.0)
        # a non-finite observable has a NaN standard error: its z is NaN,
        # which the gate below fails, not 0
        z[~np.isfinite(se)] = np.nan
        worst = float(np.max([worst, np.abs(z).max()]))
        t_val = k * horizon / n_steps
        for lbl, zz, mm, ss in zip(labels, z, mean, se):
            zrows.append({"time": t_val, "observable": lbl,
                          "z": float(zz), "mean_diff": float(mm),
                          "stderr": float(ss)})
    report = _stamp({
        "experiment": "invariance",
        "n_cut": n_cut, "gamma": conf.gamma, "ensemble": ensemble,
        "horizon": horizon, "n_steps": n_steps, "chain_steps": conf.chain_steps,
        "beta": conf.beta, "acceptance_rate": pcn.acceptance_rate, "sigma": sigma,
        "worst_abs_z": worst, "z_max": conf.z_max,
        "passed": bool(worst <= conf.z_max),
    }, cfg, seed)
    if out_dir is not None:
        _write_csv(zrows, out_dir, "invariance_zscores")
        write_report(report, out_dir, "invariance")
    return report


# ---------------------------------------------------------------------------
# inviscid-limit experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _InviscidConfig(_Config):
    n_cut: int = 8
    horizon: float = 1.0
    n_steps: int = 2000
    ensemble: int = 32
    gammas: tuple[float, ...] = (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625)
    slack: float = 0.10
    final_frac: float = 0.3
    s_metric: float = -0.25
    amplitude: float = 1.0
    # the mass-subtracted drift pumps energy when gamma > 0 and the mass is
    # large, which can blow up the explicit substep at full amplitude; the
    # constant-subtraction (wick) drift is dissipative and agrees with it at
    # gamma = 0 up to a global phase, so the sweep uses the wick form
    renormalization: str = "wick"


def cmd_inviscid(cfg: dict, seed: int = 0, out_dir=None) -> dict:
    """Coupled-seed dissipation sweep.

    For each member, one driving path and one initial condition are shared
    across the whole gamma grid (the noise amplitude scales like
    sqrt(2 gamma) inside the integrator), and
    D(gamma) = E sup_{t<=T} ||u_gamma(t) - u_0(t)||_{H^{-1/4}} is recorded.
    Pass: D nonincreasing along the grid within the stated slack, and the
    smallest-gamma distance below ``final_frac`` of the largest-gamma one.
    Keys: `_InviscidConfig`.
    """
    conf = _parse(_InviscidConfig, cfg, "inviscid")
    n_cut, horizon, n_steps, ensemble = (conf.n_cut, conf.horizon,
                                         conf.n_steps, conf.ensemble)
    gammas, s_metric, amplitude = conf.gammas, conf.s_metric, conf.amplitude
    # rows (gamma, member) of one lockstep stack: row 0 is the undamped
    # reference, and each member's data and path are shared by its rows
    dyn = DynamicsConfig(gamma=np.array((0.0,) + gammas)[:, None],
                         renormalization=conf.renormalization)

    lattice = ModeLattice(n_cut)
    wt = lattice.brackets.astype(float) ** (2.0 * s_metric)
    phi = np.stack([amplitude * sample_gff(lattice, np.random.default_rng(
        np.random.SeedSequence([seed, 8, m]))).coeffs for m in range(ensemble)])
    sup2 = np.zeros((ensemble, len(gammas)))  # running sup over time
    for c in _ensemble(lattice, phi, dyn, horizon, n_steps, (seed, 7)):
        diff2 = (np.abs(c[1:] - c[0]) ** 2 * wt).sum(axis=-1)
        np.maximum(sup2, diff2.T, out=sup2)
    mean_d, se_d = _mean_se(np.sqrt(sup2))
    monotone = bool(np.all(mean_d[1:] <= mean_d[:-1] * (1.0 + conf.slack)))
    contract = bool(mean_d[-1] <= conf.final_frac * mean_d[0])
    floor = [linear_distance(lattice, g, horizon, s_metric, amplitude)
             for g in gammas]
    csv_rows = [{"gamma": g, "mean_distance": float(d), "stderr": float(s)}
                for g, d, s in zip(gammas, mean_d, se_d)]
    report = _stamp({
        "experiment": "inviscid",
        "n_cut": n_cut, "horizon": horizon, "n_steps": n_steps,
        "ensemble": ensemble, "gammas": list(gammas),
        "renormalization": conf.renormalization, "s_metric": s_metric,
        "amplitude": amplitude,
        "mean_distances": mean_d.tolist(),
        "stderr": se_d.tolist(),
        # sqrt E||u_gamma(T) - u_0(T)||^2 of the linear flow, and its
        # smallest-gamma / largest-gamma ratio: the contraction the
        # noise-driven linear part alone allows on this grid
        "linear_floor": {
            "distances": floor,
            "ratio": floor[int(np.argmin(gammas))] / floor[int(np.argmax(gammas))],
        },
        "monotone_within_slack": monotone,
        "final_contraction": contract,
        "passed": monotone and contract,
    }, cfg, seed)
    if out_dir is not None:
        _write_csv(csv_rows, out_dir, "inviscid_distances")
        write_report(report, out_dir, "inviscid")
    return report


# ---------------------------------------------------------------------------
# smoothing experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SmoothingConfig(_Config):
    n_cuts: tuple[int, ...] = (8, 16, 32, 64)
    s: float = 0.4
    gamma: float = 0.0
    ensemble: int = 64
    horizon: float = 0.25
    thirty_slope_max: float = 0.1
    # one step per unit squared-frequency resolves the retained phases;
    # the induced quadrature bias on the integrated object is ~1%, far
    # below the slope gates, at a quarter of the cost of the finest grid
    steps_per_unit_sq: float = 1.0


def cmd_smoothing(cfg: dict, seed: int = 0, out_dir=None) -> dict:
    """Regularity scan for the linear object, the time-integrated cubic
    object, and the nonlinear remainder, across dyadic lattice sizes.

    Reports fitted slopes of log E||.||_{H^s}^2 against log N.  The pass
    conditions follow the stated thresholds: linear slope 0.8 +/- 0.2 and
    integrated-cubic slope <= ``thirty_slope_max``.  Keys: `_SmoothingConfig`.
    """
    conf = _parse(_SmoothingConfig, cfg, "smoothing")
    scan = regularity_scan(n_cuts=conf.n_cuts, s=conf.s, gamma=conf.gamma,
                           ensemble=conf.ensemble, horizon=conf.horizon, seed=seed,
                           steps_per_unit_sq=conf.steps_per_unit_sq)
    lin_slope = scan["linear"]["slope"]
    thirty_slope = scan["integrated_cubic"]["slope"]
    three_slope = scan["cubic"]["slope"]
    lin_ok = bool(abs(lin_slope - 0.8) <= 0.2)
    thirty_ok = bool(thirty_slope <= conf.thirty_slope_max)
    report = _stamp({
        "experiment": "smoothing",
        "n_cuts": list(conf.n_cuts), "s": conf.s, "gamma": conf.gamma,
        "ensemble": conf.ensemble,
        "linear_slope": lin_slope,
        "cubic_slope": three_slope,
        "integrated_cubic_slope": thirty_slope,
        "means": {k: scan[k]["mean_sq"].tolist() for k in
                  ("linear", "cubic", "integrated_cubic")},
        "linear_ok": lin_ok,
        "integrated_cubic_ok": thirty_ok,
        "passed": lin_ok and thirty_ok,
    }, cfg, seed)
    if out_dir is not None:
        rows = [{"object": name, "s": scan["s"], "gamma": scan["gamma"], "n_cut": N,
                 "mean_sq_norm": f"{m:.8e}", "stderr": f"{se:.8e}",
                 "slope": f"{scan[name]['slope']:.4f}"}
                for name in ("linear", "cubic", "integrated_cubic")
                for N, m, se in zip(scan["n_cuts"], scan[name]["mean_sq"], scan[name]["se"])]
        _write_csv(rows, out_dir, "smoothing_scan")
        write_report(report, out_dir, "smoothing")
    return report


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_kernels(seed: int) -> dict:
    decay = symbol_decay_sweep(n_points=10_000, seed=seed)
    lip = symbol_lipschitz_sweep(n_points=2000, seed=seed + 1)
    ok = decay["max_ratio"] < 10.0 and decay["trend_slope"] < 0.05 \
        and lip["max_ratio"] < 10.0
    return {"decay": decay, "lipschitz": lip, "passed": bool(ok)}


def _suite_counting(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    rows = []
    for n23 in (4, 8, 16):
        worst = 0.0
        for _ in range(100):
            signs = tuple(int(v) for v in rng.choice([-1, 1], 3))
            centers = [rng.integers(-2 * n23, 2 * n23 + 1, 2)
                       for _ in range(3)]
            x0 = centers[0] + rng.integers(-n23, n23 + 1, 2)
            y0 = centers[1] + rng.integers(-n23, n23 + 1, 2)
            z0 = centers[2] + rng.integers(-n23, n23 + 1, 2)
            d = signs[0] * x0 + signs[1] * y0 + signs[2] * z0
            alpha = int(signs[0] * (1 + x0 @ x0) + signs[1] * (1 + y0 @ y0)
                        + signs[2] * (1 + z0 @ z0))
            q = CountQuery(signs=signs, d=d, alpha=alpha, centers=centers,
                           radii=(n23, n23, n23))
            size = count_set(q)
            worst = max(worst, size / (n23 ** 1.1 * n23))
        rows.append({"n23": n23, "fitted_c": worst})
    cs = np.array([r["fitted_c"] for r in rows])
    slope = float(np.polyfit(np.log([4.0, 8.0, 16.0]), np.log(cs), 1)[0])
    # "flat" is gated one-sided: a downward drift of the fitted constant
    # only means the bound is conservative at small sizes, while an upward
    # drift would signal a genuine violation of the uniform constant
    ok = bool(cs.max() <= 10.0 and slope <= 0.15)
    return {"rows": rows, "trend_slope": slope, "passed": ok}


def _suite_tensors(seed: int) -> dict:
    return verify_tensor_bounds()


def _suite_chaos(seed: int) -> dict:
    lattice = ModeLattice(2)
    n_dyn = 8
    grid = CellGrid(lattice, n_dyn=n_dyn, horizon=1.0)
    rng = np.random.default_rng(seed)
    n_mc = 4000
    # diagonal-free random kernel pair, k = 2
    vals_f = rng.standard_normal((grid.n_cells, grid.n_cells)) / grid.n_cells
    vals_g = rng.standard_normal((grid.n_cells, grid.n_cells)) / grid.n_cells
    np.fill_diagonal(vals_f, 0.0)
    np.fill_diagonal(vals_g, 0.0)
    f = ChaosKernel(grid, vals_f, (1, 1))
    g = ChaosKernel(grid, vals_g, (1, 1))
    prods = np.empty(n_mc, dtype=complex)
    for i in range(n_mc):
        dyn = NoisePath.generate(lattice, 1.0, n_dyn,
                                 seed=int(np.random.SeedSequence(
                                     [seed, 11, i]).generate_state(1)[0]))
        dat = NoisePath.generate(lattice, 1.0, 1,
                                 seed=int(np.random.SeedSequence(
                                     [seed, 12, i]).generate_state(1)[0]))
        inc = grid.increments(dyn, dat)
        prods[i] = multi_integral(f, inc) * np.conj(multi_integral(g, inc))
    target = 2.0 * kernel_inner(symmetrize(f), symmetrize(g))
    se = prods.std(ddof=1) / np.sqrt(n_mc)
    z_iso = abs(prods.mean() - target) / max(float(np.real(se)), 1e-300)
    ok = bool(z_iso <= 3.0)
    return {"isometry_z": float(z_iso), "passed": ok}


def _suite_strichartz(seed: int) -> dict:
    res = l4_ratio_scan(ensemble=8, seed=seed)
    ok = bool(res["growth_exponent"] <= 0.1)
    res["passed"] = ok
    return res


def _suite_smoothing(seed: int) -> dict:
    rep = cmd_smoothing({"n_cuts": [8, 16, 32], "ensemble": 8}, seed=seed)
    return {"linear_slope": rep["linear_slope"],
            "integrated_cubic_slope": rep["integrated_cubic_slope"],
            "passed": rep["passed"]}


def _suite_picard(seed: int) -> dict:
    n_cut, gamma, horizon, n_steps = 4, 0.5, 0.05, 16000
    lattice = ModeLattice(n_cut)
    rng = np.random.default_rng(seed)
    phi = sample_gff(lattice, rng)
    path = NoisePath.generate(lattice, horizon, n_steps, seed=seed + 1)
    traj = evolve(phi, path, DynamicsConfig(gamma=gamma, renormalization="dynamic"))
    rem = extract_remainder(traj, phi, path)
    pic = picard_remainder(linear_evolution(phi, path, gamma))
    diff = np.sqrt((np.abs(pic.trajectory.coeffs - rem.coeffs) ** 2)
                   .sum(axis=1)).max()
    factor = max(pic.contraction_ratios) if pic.contraction_ratios else 0.0
    ok = bool(diff <= 1e-4 and factor < 1.0 and pic.converged)
    return {"sup_l2_distance": float(diff),
            "contraction_factor": float(factor),
            "passed": ok}


_SUITES = {
    "kernels": _suite_kernels,
    "counting": _suite_counting,
    "tensors": _suite_tensors,
    "chaos": _suite_chaos,
    "strichartz": _suite_strichartz,
    "smoothing": _suite_smoothing,
    "picard": _suite_picard,
}


@dataclass(frozen=True)
class _VerifyConfig(_Config):
    suite: str = "all"


def cmd_verify(cfg: dict, seed: int = 0, out_dir=None) -> dict:
    """Run one named verification suite (or all of them) and report
    pass/fail with measured values.  Keys: `_VerifyConfig`."""
    name = _parse(_VerifyConfig, cfg, "verify").suite
    names = list(_SUITES) if name == "all" else [name]
    unknown = [n for n in names if n not in _SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {unknown}; "
                         f"choose from {sorted(_SUITES)}")
    results = {}
    passed = True
    for n in names:
        t0 = time.time()
        res = _SUITES[n](seed)
        res["runtime_s"] = round(time.time() - t0, 2)
        results[n] = res
        passed = passed and bool(res.get("passed", False))
    report = _stamp({"experiment": "verify", "suites": results,
                     "passed": passed}, cfg, seed)
    if out_dir is not None:
        write_report(report, out_dir, "verify")
    return report
