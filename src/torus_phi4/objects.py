"""Construction and regularity diagnostics of the stochastic objects.

The three basic objects attached to a cutoff N, a dissipation gamma,
random data phi and a driving path are:

* the linear ansatz: propagated data plus stochastic convolution;
* its pairing-free cubic, evaluated snapshot-wise;
* the retarded integral of that cubic (the smoothed cubic object).

`regularity_scan` estimates E||.||_{H^s}^2 across cutoffs and fits the
growth slope in log N.  The linear ansatz grows like N^{2s} for s > 0;
the smoothed cubic stays bounded at s below one half (multilinear
smoothing), which is the quantitative content of the scan.

Scans stream the Ornstein-Uhlenbeck and Duhamel recursions of `flows`
step by step instead of storing trajectories, so the N = 64 column fits in
memory; the time step resolves the fastest retained oscillation
(h ~ 1/N^2), which the retarded integral needs in order to see the
cancellation it is claiming.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .flows import (Trajectory, _check_damping, _duhamel_steps, _ou_steps, duhamel,
                    linear_evolution)
from .gibbs import sample_gff
from .noise import NoisePath, _stream_increments
from .nonlinearity import nonpairing_batch
from .spectral import FourierField, ModeLattice

__all__ = [
    "ObjectBundle",
    "build_bundle",
    "regularity_scan",
    "write_scan_csv",
]


@dataclass
class ObjectBundle:
    gamma: float
    linear: Trajectory
    cubic: Trajectory
    integrated_cubic: Trajectory


def build_bundle(phi: FourierField, path: NoisePath, gamma: float) -> ObjectBundle:
    """Assemble the linear ansatz, its cubic, and the integrated cubic."""
    lin = linear_evolution(phi, path, gamma)
    cub_coeffs = nonpairing_batch(path.lattice, lin.coeffs, lin.coeffs, lin.coeffs)
    cub = Trajectory(path.lattice, path.times, cub_coeffs, gamma)
    return ObjectBundle(gamma, lin, cub, duhamel(cub))


def _member_norms(
    lattice: ModeLattice,
    gamma: float,
    horizon: float,
    n_steps: int,
    rng: np.random.Generator,
    s: float,
) -> dict:
    """Time-averaged squared H^s norms of the three objects for one member.

    The data are the rng's GFF draw and, at gamma > 0, the path its next
    normals make.  The recursions are streamed step by step, each state
    tallied as it comes; only O(n_modes) state is kept.
    """
    h = horizon / n_steps
    w_s = np.repeat(lattice.brackets ** (2.0 * s), 2)  # one weight per (re, im) entry
    acc = {"linear": 0.0, "cubic": 0.0, "integrated_cubic": 0.0}

    def tally(name, states):
        for c in states:
            p = c.view(np.float64)
            acc[name] += float(p @ (w_s * p))
            yield c

    lin = sample_gff(lattice, rng).coeffs
    if gamma > 0.0:
        incs = (inc[0] for inc in _stream_increments([rng], lattice, horizon, n_steps))
    else:
        incs = itertools.repeat(0.0, n_steps)  # the noise scale is zero
    lins = tally("linear", _ou_steps(lattice, gamma, h, lin, incs))
    cubs = tally("cubic", (nonpairing_batch(lattice, u, u, u) for u in lins))
    cub = nonpairing_batch(lattice, lin, lin, lin)
    icubs = _duhamel_steps(lattice, gamma, h, itertools.chain([cub], cubs))
    for _ in tally("integrated_cubic", icubs):
        pass
    return {k: v / n_steps for k, v in acc.items()}


def regularity_scan(
    n_cuts: tuple = (8, 16, 32, 64),
    s: float = 0.4,
    gamma: float = 0.0,
    horizon: float = 0.25,
    ensemble: int = 64,
    seed: int = 0,
    steps_per_unit_sq: float = 4.0,
) -> dict:
    """Mean-square H^s norms of the objects across cutoffs, with slope fits.

    For each cutoff the step count is steps_per_unit_sq * horizon * N^2
    (rounded up), resolving the largest retained linear phase.  Returns
    per-object means, standard errors, and least-squares slopes of
    log(mean) against log(N).
    """
    _check_damping(gamma)
    results = {name: np.zeros((len(n_cuts), ensemble)) for name in
               ("linear", "cubic", "integrated_cubic")}
    for i, N in enumerate(n_cuts):
        lattice = ModeLattice(N)
        n_steps = int(np.ceil(steps_per_unit_sq * horizon * N * N))
        for m in range(ensemble):
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed), int(N), m])
            )
            norms = _member_norms(lattice, gamma, horizon, n_steps, rng, s)
            for name in results:
                results[name][i, m] = norms[name]
    out = {"n_cuts": tuple(n_cuts), "s": s, "gamma": gamma, "ensemble": ensemble}
    logn = np.log(np.asarray(n_cuts, dtype=float))
    for name, vals in results.items():
        mean = vals.mean(axis=1)
        se = vals.std(axis=1, ddof=1) / np.sqrt(ensemble)
        if len(n_cuts) >= 2:
            slope = float(np.polyfit(logn, np.log(mean), 1)[0])
        else:
            slope = float("nan")
        out[name] = {"mean_sq": mean, "se": se, "slope": slope}
    return out


def write_scan_csv(scan: dict, path: str) -> None:
    """Emit a regularity scan as CSV rows (object, s, N, mean_sq, se, slope)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["object", "s", "gamma", "n_cut", "mean_sq_norm", "stderr", "slope"])
        for name in ("linear", "cubic", "integrated_cubic"):
            block = scan[name]
            for N, m, se in zip(scan["n_cuts"], block["mean_sq"], block["se"]):
                writer.writerow(
                    [name, scan["s"], scan["gamma"], N, f"{m:.8e}", f"{se:.8e}",
                     f"{block['slope']:.4f}"]
                )
