"""The four benchmark workloads: their inputs, the timed call and the checks.

Each workload is one seeded call into the package's public entry points at
a reduced size.  The checks compare the report against sums, enumerations
and SVDs computed here, independently of the package, or against
properties the method must have; none compares against stored output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats

from torus_phi4 import counting, experiments

# cmd_invariance at its own cutoff with the full 20 000-step pCN chains;
# only the ensemble is reduced (from 512)
EQUILIBRIUM = {"n_cut": 4, "ensemble": 16, "chain_steps": 20_000,
               "gamma": 0.5, "horizon": 2.0, "n_steps": 800}
# cmd_inviscid over its full damping grid at its own step size h = 5e-4;
# fewer members (32 -> 3) and half the horizon
GAMMAS = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
INVISCID = {"n_cut": 8, "ensemble": 3, "horizon": 0.5, "n_steps": 1000,
            "gammas": GAMMAS, "slack": 0.10}
# cmd_smoothing over all four cutoffs at its own time resolution (one step
# per unit squared frequency); two members and a quarter of the horizon
SMOOTHING = {"n_cuts": [8, 16, 32, 64], "ensemble": 2, "horizon": 0.0625,
             "s": 0.4, "gamma": 0.0}
# the body of `verify --suite tensors` on its default sweeps less the two
# 3.2M-non-zero triples (4, 4, 4) and (8, 4, 2), which take 35-55 s each;
# the largest tensor left, (4, 4, 2), holds 0.78M non-zeros
TENSOR_SWEEPS = (((1, 1, 1), (2, 2, 2)), ((2, 1, 1), (4, 2, 2)),
                 ((2, 2, 1), (4, 4, 2)))

# family-wise false-failure rates of the statistical gates on a fresh seed
EQUILIBRIUM_FAMILY_ALPHA = 1e-5
# |z| gate on the linear object's mean; a Chernoff bound on the weighted
# exponential sum puts a false failure below 2e-5 over the four cutoffs
SMOOTHING_Z_MAX = 6.0
# power iteration approaches each norm from below; matricization_norm's own
# dense certification accepts a relative shortfall of up to 1e-6
NORM_TOL = 1e-6
DENSE_NNZ_LIMIT = 20_000  # shells small enough for dense SVDs


@dataclass(frozen=True)
class Workload:
    top_span: str  # layer-qualified name of the timed call
    items: int  # statistical units completed by one call
    call: Callable[[], dict]
    check: Callable[[dict], list]


def make(name: str, seed: int) -> Workload:
    """Build a workload's inputs from the seed."""
    if name == "equilibrium":
        cfg = dict(EQUILIBRIUM)
        return Workload("experiments.cmd_invariance", cfg["ensemble"],
                        lambda: experiments.cmd_invariance(dict(cfg), seed=seed),
                        lambda rep: check_equilibrium(rep, cfg))
    if name == "inviscid":
        cfg = dict(INVISCID)
        return Workload("experiments.cmd_inviscid", cfg["ensemble"],
                        lambda: experiments.cmd_inviscid(dict(cfg), seed=seed),
                        lambda rep: check_inviscid(rep, cfg))
    if name == "smoothing":
        cfg = dict(SMOOTHING)
        return Workload("experiments.cmd_smoothing",
                        cfg["ensemble"] * len(cfg["n_cuts"]),
                        lambda: experiments.cmd_smoothing(dict(cfg), seed=seed),
                        lambda rep: check_smoothing(rep, cfg))
    if name == "tensor_bounds":
        # no random input: the shell sweeps are the same for every seed
        sweeps = TENSOR_SWEEPS
        return Workload("counting.verify_tensor_bounds",
                        sum(len(s) for s in sweeps),
                        lambda: counting.verify_tensor_bounds(shell_sweeps=sweeps),
                        lambda rep: check_tensor_bounds(rep, sweeps))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# independent lattice sums
# ---------------------------------------------------------------------------

def ball_brackets_sq(n_cut: int) -> np.ndarray:
    """<n>^2 = 1 + |n|^2 over the integer points with <n> <= n_cut."""
    a = np.arange(-n_cut, n_cut + 1)
    sq = 1 + a[:, None] ** 2 + a[None, :] ** 2
    return sq[sq <= n_cut * n_cut].astype(float)


def _echo(report: dict, cfg: dict, keys) -> list:
    return [f"report echoes {k}={report.get(k)!r}, asked for {cfg[k]!r}"
            for k in keys if report.get(k) != cfg[k]]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_equilibrium(rep: dict, cfg: dict) -> list:
    problems = _echo(rep, cfg, ("n_cut", "ensemble", "gamma", "horizon"))
    sq = ball_brackets_sq(cfg["n_cut"])
    sigma = float(np.sum(1.0 / sq))
    if not math.isclose(rep["sigma"], sigma, rel_tol=1e-12):
        problems.append(f"sigma {rep['sigma']} != sum <n>^-2 = {sigma}")
    # paired t statistics over 2 * (K + 2) observables: Bonferroni gate on
    # Student's t with ensemble - 1 degrees of freedom
    n_obs = 2 * (sq.size + 2)
    gate = float(stats.t.isf(EQUILIBRIUM_FAMILY_ALPHA / n_obs / 2.0,
                             cfg["ensemble"] - 1))
    z = rep["worst_abs_z"]
    if not (math.isfinite(z) and z <= gate):
        problems.append(f"worst |z| {z} above the family-wise gate {gate:.2f}")
    return problems


def check_inviscid(rep: dict, cfg: dict) -> list:
    problems = _echo(rep, cfg, ("n_cut", "ensemble", "horizon", "gammas"))
    d = np.asarray(rep["mean_distances"], dtype=float)
    if d.shape != (len(cfg["gammas"]),) or not np.all(np.isfinite(d) & (d > 0)):
        return problems + [f"distances not finite and positive: {d}"]
    if not np.all(d[1:] <= d[:-1] * (1.0 + cfg["slack"])):
        problems.append(f"distances increase beyond the slack: {d}")
    if not d[-1] < d[0]:
        problems.append(f"smallest-gamma distance {d[-1]} >= largest {d[0]}")
    return problems


def check_smoothing(rep: dict, cfg: dict) -> list:
    problems = _echo(rep, cfg, ("n_cuts", "ensemble", "s", "gamma"))
    s, ens = cfg["s"], cfg["ensemble"]
    # at gamma = 0 the linear object keeps each mode's modulus, so its
    # time-averaged weighted norm is sum <n>^{2s} |g_n|^2 / <n>^2 with
    # |g_n|^2 standard exponentials
    for n_cut, mean in zip(cfg["n_cuts"], rep["means"]["linear"]):
        sq = ball_brackets_sq(n_cut)
        mu = float(np.sum(sq ** (s - 1.0)))
        se = math.sqrt(float(np.sum(sq ** (2.0 * s - 2.0))) / ens)
        z = (mean - mu) / se
        if not abs(z) <= SMOOTHING_Z_MAX:
            problems.append(f"N={n_cut}: linear mean {mean} is {z:.2f} "
                            f"standard errors from {mu}")
    for name in ("cubic", "integrated_cubic"):
        m = np.asarray(rep["means"][name], dtype=float)
        if not np.all(np.isfinite(m) & (m > 0)):
            problems.append(f"{name} means not finite and positive: {m}")
    return problems


# -- tensor bounds ------------------------------------------------------------

_SLOTS = ("n", "n1", "n2", "n3")
_FAM1 = (("n",), ("n1",), ("n", "n2"), ("n", "n3"))
_FAM2 = (("n",), ("n", "n1"))


def shell_points(n_lo: int) -> np.ndarray:
    """Integer points with n_lo <= <n> < 2 n_lo."""
    a = np.arange(-2 * n_lo, 2 * n_lo + 1)
    gx, gy = np.meshgrid(a, a, indexing="ij")
    sq = 1 + gx ** 2 + gy ** 2
    keep = (sq >= n_lo * n_lo) & (sq < 4 * n_lo * n_lo)
    return np.stack([gx[keep], gy[keep]], axis=1)


def pairing_free_support(shells) -> dict:
    """All (n; n1, n2, n3) with n = n1 - n2 + n3, n_j in shell j,
    n2 != n1 and n2 != n3, by enumerating the full product of shells."""
    s1, s2, s3 = (shell_points(int(N)) for N in shells)
    keep = (~np.all(s2[None, :, None] == s1[:, None, None], axis=-1)
            & ~np.all(s2[None, :, None] == s3[None, None, :], axis=-1))
    i1, i2, i3 = np.nonzero(keep)
    n1, n2, n3 = s1[i1], s2[i2], s3[i3]
    n = n1 - n2 + n3
    sq = lambda v: np.sum(v * v, axis=1)
    return {"n": n, "n1": n1, "n2": n2, "n3": n3,
            "level": sq(n) - sq(n1) + sq(n2) - sq(n3)}


def _group_keys(sup: dict, slots) -> np.ndarray:
    key = np.zeros(sup["n"].shape[0], dtype=np.int64)
    for s in slots:
        if np.abs(sup[s]).max() >= 64:
            raise OverflowError("mode coordinates beyond the key range")
        v = sup[s].astype(np.int64) + 64
        key = (key * 129 + v[:, 0]) * 129 + v[:, 1]
    return key


def _max_counts(keys: np.ndarray, level: np.ndarray | None) -> np.ndarray:
    """Largest multiplicity of a key, per resonance level when given."""
    if level is None:
        return np.array([np.unique(keys, return_counts=True)[1].max()])
    lev = level - level.min()
    span = int(lev.max()) + 1
    if int(keys.max()) >= 2 ** 62 // span:
        raise OverflowError("support keys too large to combine with levels")
    uniq, counts = np.unique(keys * span + lev, return_counts=True)
    out = np.zeros(span, dtype=np.int64)
    np.maximum.at(out, uniq % span, counts)
    return out[out > 0]


def norm_interval(sup: dict, family, per_level: bool) -> tuple:
    """[sqrt(max row or column count), sqrt(max row sum * max column sum)]
    for the largest matricization norm of the family (over levels too)."""
    level = sup["level"] if per_level else None
    lo = hi = 0.0
    for rows in family:
        cols = tuple(s for s in _SLOTS if s not in rows)
        r = _max_counts(_group_keys(sup, rows), level)
        c = _max_counts(_group_keys(sup, cols), level)
        lo = max(lo, float(np.sqrt(np.maximum(r, c).max())))
        hi = max(hi, float(np.sqrt((r * c).max())))
    return lo, hi


def dense_norm(sup: dict, family, per_level: bool) -> float:
    """Largest matricization norm of the family by dense numpy SVDs."""
    levels = np.unique(sup["level"]) if per_level else [None]
    best = 0.0
    for lev in levels:
        sel = slice(None) if lev is None else sup["level"] == lev
        for rows in family:
            cols = tuple(s for s in _SLOTS if s not in rows)
            ri = np.unique(_group_keys(sup, rows)[sel], return_inverse=True)[1]
            ci = np.unique(_group_keys(sup, cols)[sel], return_inverse=True)[1]
            mat = np.zeros((ri.max() + 1, ci.max() + 1))
            mat[ri, ci] = 1.0
            # singular values of the smaller Gram matrix are squared ones
            gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
            top = float(np.linalg.svd(gram, compute_uv=False, hermitian=True)[0])
            best = max(best, np.sqrt(top))
    return best


def check_tensor_bounds(rep: dict, sweeps) -> list:
    problems = []
    triples = [tuple(t) for sweep in sweeps for t in sweep]
    got = [tuple(r["shells"]) for r in rep["rows"]]
    if got != triples:
        return [f"report rows are for shells {got}, asked for {triples}"]
    eps = rep["eps"]
    for row in rep["rows"]:
        shells = row["shells"]
        nmax, nmed, nmin = map(float, sorted(shells, reverse=True))
        sup = pairing_free_support(shells)
        nnz = sup["n"].shape[0]
        if row["nnz"] != nnz:
            problems.append(f"{shells}: nnz {row['nnz']} != enumerated {nnz}")
            continue
        values = {
            ("norm1", False): row["ratio_norm1"] * nmax * nmed,
            ("norm1", True): row["ratio_fiber1"] * nmax ** (0.5 + eps) * nmed ** 0.5,
            ("norm2", False): row["ratio_norm2"] * nmax * nmin,
            ("norm2", True): row["ratio_fiber2"] * nmax ** (0.5 + eps) * nmin ** 0.5,
        }
        for (which, per_level), val in values.items():
            family = _FAM1 if which == "norm1" else _FAM2
            label = f"{shells} {'fiber sup ' if per_level else ''}{which}"
            lo, hi = norm_interval(sup, family, per_level)
            if not lo * (1 - NORM_TOL) <= val <= hi * (1 + 1e-12):
                problems.append(f"{label} = {val} outside [{lo}, {hi}]")
            if nnz <= DENSE_NNZ_LIMIT:
                dense = dense_norm(sup, family, per_level)
                if not dense * (1 - NORM_TOL) <= val <= dense * (1 + 1e-12):
                    problems.append(f"{label} = {val}, dense SVD {dense}")
    return problems
