"""Linear propagators, stochastic flows, gauge transforms, and the
remainder integral equation.

Conventions.  The linear semigroup acts mode-wise as
exp(-(gamma*t + i*t') <n>^2) for t >= 0; with t' = t this is the
dissipative-dispersive propagator exp((gamma+i) t (Lap - 1)).  The
stochastic convolution solves the linear equation driven by
sqrt(2*gamma) times white noise truncated to the lattice, with the
exact mode-wise Ornstein-Uhlenbeck recursion

    Psi(t_{k+1}) = exp(-(gamma+i) h <n>^2) Psi(t_k) + eta_k,
    E|eta_k|^2 = (1 - exp(-2 gamma h <n>^2)) / <n>^2,

where eta_k is a deterministic per-mode rescaling of the driving-path
increment, so flows at different gamma driven by the same path are
coupled realization by realization.

The time integrator is Strang splitting with the exact linear/noise
step; the nonlinear substep is an exact pointwise phase rotation when
gamma = 0 (modulus preserving, hence mass conserving before projection)
and an explicit Euler update otherwise.  `lockstep` advances a stack of
states, one damping per row, in one batched step; `evolve` is its
one-row case.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .gibbs import mode_variance_sum
from .noise import NoisePath
from .nonlinearity import mass, nonpairing_batch, renormalized_cubic, wick_cubic
from .spectral import FourierField, ModeLattice

__all__ = [
    "propagator",
    "stochastic_convolution",
    "linear_evolution",
    "DynamicsConfig",
    "Trajectory",
    "evolve",
    "lockstep",
    "linear_distance",
    "MassBlowUpError",
    "extract_remainder",
    "gauge_phase",
    "apply_gauge",
    "duhamel",
    "PicardResult",
    "picard_remainder",
]

MASS_BLOWUP_LIMIT = 1e8
TRAJECTORY_FORMAT = "torus-phi4/trajectory-v1"  # the "format" key of a saved manifest


class MassBlowUpError(RuntimeError):
    """The mass of a row of an integrator stack passed MASS_BLOWUP_LIMIT.

    `step` is the index of the step that produced the state, `mass` its
    squared l2 norm, and `member` the row's index in the stack flattened
    to (rows, n_modes) (0 for `evolve`).
    """

    def __init__(self, step: int, mass: float, member: int = 0):
        super().__init__(
            f"mass blow-up at step {step} in member {member} (mass {mass:.3g}): "
            "reduce the step size or the data"
        )
        self.step = step
        self.mass = mass
        self.member = member


def propagator(u: FourierField, gamma: float, t: float, t_prime: float | None = None) -> FourierField:
    """Apply the mode multiplier exp(-(gamma*|t| + i*t') <n>^2)."""
    if t_prime is None:
        t_prime = t
    q = u.lattice.brackets**2
    mult = np.exp(-(gamma * abs(t) + 1j * t_prime) * q)
    return FourierField(u.lattice, u.coeffs * mult)


def _ou_factors(
    lattice: ModeLattice, gamma: float | np.ndarray, h: float, n_trunc: float | None
):
    """Per-mode decay factor and increment rescaling for one step of size h.

    `gamma` is a float or an array of shape (..., 1) for per-row dampings.
    """
    q = lattice.brackets**2
    decay = np.exp(-(gamma + 1j) * h * q)
    var = -np.expm1(-2.0 * gamma * h * q) / q  # (1 - e^{-2 gamma h q})/q, 0 at gamma 0
    scale = np.sqrt(var / h)  # driving increments have E|DB|^2 = h
    if n_trunc is not None:
        scale = np.where(lattice.brackets <= n_trunc + 1e-12, scale, 0.0)
    return decay, scale


def stochastic_convolution(
    path: NoisePath, gamma: float, n_trunc: float | None = None
) -> "Trajectory":
    """Exact sampling of the stochastic convolution along the path grid."""
    traj = linear_evolution(FourierField(path.lattice), path, gamma, n_trunc)
    traj.meta["kind"] = "stochastic_convolution"
    return traj


def linear_evolution(
    phi: FourierField, path: NoisePath, gamma: float, n_trunc: float | None = None
) -> "Trajectory":
    """Propagated data plus stochastic convolution (the linear ansatz)."""
    lat = path.lattice
    decay, scale = _ou_factors(lat, gamma, path.h, n_trunc)
    out = np.empty((path.n_steps + 1, lat.n_modes), dtype=np.complex128)
    out[0] = phi.coeffs
    if n_trunc is not None:
        out[0] = np.where(lat.brackets <= n_trunc + 1e-12, out[0], 0.0)
    for k in range(path.n_steps):
        out[k + 1] = decay * out[k] + scale * path.increments[k]
    return Trajectory(lat, path.times, out, gamma, {"kind": "linear_evolution"})


@dataclass
class DynamicsConfig:
    """Settings of the renormalized flow.

    `gamma` is a float, or for `lockstep` an array of per-row dampings
    broadcastable to the stack's leading shape.
    """

    gamma: float | np.ndarray
    n_trunc: float
    renormalization: str = "dynamic"  # 'dynamic': subtract 2*mass(u); 'wick': 2*sigma
    sigma: float | None = None
    nonlinearity_on: bool = True
    noise_on: bool = True

    def resolved_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        return mode_variance_sum(self.n_trunc)


@dataclass
class Trajectory:
    lattice: ModeLattice
    times: np.ndarray
    coeffs: np.ndarray  # shape (n_snapshots, n_modes)
    gamma: float
    meta: dict = field(default_factory=dict)

    @property
    def n_snapshots(self) -> int:
        return self.coeffs.shape[0]

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    def snapshot(self, k: int) -> FourierField:
        return FourierField(self.lattice, self.coeffs[k].copy())

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        np.save(os.path.join(directory, "coeffs.npy"), self.coeffs)
        manifest = {
            "format": TRAJECTORY_FORMAT,
            "n_cut": self.lattice.n_cut,
            "times": self.times.tolist(),
            "gamma": self.gamma,
            "meta": self.meta,
        }
        with open(os.path.join(directory, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)

    @classmethod
    def load(cls, directory: str) -> "Trajectory":
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        if manifest.get("format") != TRAJECTORY_FORMAT:
            raise ValueError(f"unrecognized trajectory format in {directory}")
        lattice = ModeLattice(manifest["n_cut"])
        times = np.asarray(manifest["times"])
        coeffs = np.load(os.path.join(directory, "coeffs.npy"))
        if coeffs.shape != (times.size, lattice.n_modes):
            raise ValueError(
                f"trajectory coefficients have shape {coeffs.shape}, expected "
                f"{(times.size, lattice.n_modes)} for its times and cutoff"
            )
        return cls(lattice, times, coeffs, manifest["gamma"], manifest.get("meta", {}))


def _nonlinear_substep(
    u: FourierField, rot: np.ndarray, h_damped: np.ndarray, sigma: float | None,
    h: float, trunc_mask: np.ndarray
) -> np.ndarray:
    """Nonlinear substep of size h on the stack u, then sharp truncation.

    Rows where `rot` holds (gamma = 0) take the exact flow of
    du/dt = -i (|u|^2 - 2m) u, a pointwise phase rotation (m is constant
    along the substep because |u(x)| is preserved).  The other rows take an
    explicit Euler step u - h (gamma+i) W(u), with h (gamma+i) per row in
    `h_damped`.  m and W use the constant sigma, or the mass when sigma is
    None (the dynamic renormalization).
    """
    lat = u.lattice
    out = np.empty_like(u.coeffs)
    if rot.any():
        v = FourierField(lat, u.coeffs[rot])
        m = sigma if sigma is not None else mass(v)[:, None, None]
        w = v.to_physical()
        a = np.abs(w, out=lat._workspace("real", w.shape, np.float64))
        a *= a
        a -= 2.0 * m
        # every output is named, whatever the stack's size: numpy multiplies
        # into an unnamed temporary only above 256 KB, with a loop whose last
        # bits differ from the one a row alone would take
        phase = np.multiply(-1j * h, a, out=lat._workspace("grid", w.shape))
        w *= np.exp(phase, out=phase)
        out[rot] = lat._from_grid(w, overwrite=True)
    if not rot.all():
        v = FourierField(lat, u.coeffs[~rot])
        drift = wick_cubic(v, sigma) if sigma is not None else renormalized_cubic(v)
        out[~rot] = v.coeffs - h_damped * drift.coeffs
    out *= trunc_mask
    return out


def lockstep(
    phi: FourierField, increments: Iterable[np.ndarray], h: float, cfg: DynamicsConfig
) -> Iterator[np.ndarray]:
    """Advance a stack of states in lockstep, one damping per row.

    `phi.coeffs` has shape (..., n_modes) and `cfg.gamma` broadcasts
    against its leading shape; the stack has their common shape.  Each item
    of `increments` drives one step and broadcasts against the stack, so
    rows can share a path.  Yields the truncated data, then the state after
    each step; the arrays are not modified later.  A row equals the
    one-row `evolve` at its damping and path bit for bit.
    """
    lat = phi.lattice
    gamma = np.asarray(cfg.gamma, dtype=np.float64)
    shape = np.broadcast_shapes(phi.coeffs.shape[:-1], gamma.shape)
    g = gamma[..., None]
    decay_half = np.exp(-(g + 1j) * (h / 2.0) * lat.brackets**2)
    _, scale = _ou_factors(lat, g, h, cfg.n_trunc)
    if not cfg.noise_on:
        scale = np.zeros_like(scale)
    trunc_mask = (lat.brackets <= cfg.n_trunc + 1e-12).astype(np.float64)
    rows = np.broadcast_to(gamma, shape)
    rot = rows == 0.0
    h_damped = h * (rows[~rot][:, None] + 1j)
    sigma = cfg.resolved_sigma() if cfg.renormalization == "wick" else None

    c = np.broadcast_to(phi.coeffs * trunc_mask, shape + (lat.n_modes,))
    yield c
    for k, inc in enumerate(increments):
        c = c * decay_half
        if cfg.nonlinearity_on:
            c = _nonlinear_substep(FourierField(lat, c), rot, h_damped, sigma, h,
                                   trunc_mask)
        c = c * decay_half + scale * inc
        m = np.sum(np.abs(c) ** 2, axis=-1).ravel()
        if np.any(m > MASS_BLOWUP_LIMIT):
            r = int(np.flatnonzero(m > MASS_BLOWUP_LIMIT)[0])
            raise MassBlowUpError(k, float(m[r]), r)
        yield c


def evolve(phi: FourierField, path: NoisePath, cfg: DynamicsConfig) -> Trajectory:
    """Integrate the truncated renormalized flow along the driving path.

    One step of size h: exact linear half step, nonlinear substep of
    size h (then sharp truncation), exact linear half step, then the
    Ornstein-Uhlenbeck noise increment.  With the nonlinearity switched
    off this reproduces propagator + stochastic_convolution exactly.
    The one-row case of `lockstep`.
    """
    lat = path.lattice
    out = np.empty((path.n_steps + 1, lat.n_modes), dtype=np.complex128)
    stack = FourierField(lat, phi.coeffs[None])
    for k, c in enumerate(lockstep(stack, path.increments, path.h, cfg)):
        out[k] = c[0]
    return Trajectory(
        lat,
        path.times,
        out,
        cfg.gamma,
        {"kind": "evolve", "renormalization": cfg.renormalization, "n_trunc": cfg.n_trunc},
    )


def linear_distance(
    lattice: ModeLattice, gamma: float, t: float, s: float, amplitude: float = 1.0
) -> float:
    """sqrt(E ||u_gamma(t) - u_0(t)||_{H^s}^2) for the linear flow, in closed form.

    u_gamma is `linear_evolution` from free-field data scaled by
    `amplitude`, driven by its path at damping gamma; u_0 is the undamped
    run from the same data, which feels no noise.  With a = gamma t <n>^2
    mode n contributes <n>^{2s-2} (amplitude^2 (1 - e^{-a})^2 + 1 - e^{-2a}),
    which at amplitude 1 is 2 <n>^{2s-2} (1 - e^{-a}).
    """
    q = lattice.brackets**2
    a = gamma * t * q
    var = amplitude**2 * np.expm1(-a) ** 2 - np.expm1(-2.0 * a)
    return float(np.sqrt(np.sum(q ** (s - 1.0) * var)))


def extract_remainder(
    traj: Trajectory, phi: FourierField, path: NoisePath, n_trunc: float | None = None
) -> Trajectory:
    """Subtract the linear ansatz (propagated data + convolution) from a run."""
    lin = linear_evolution(phi, path, traj.gamma, n_trunc)
    return Trajectory(
        traj.lattice,
        traj.times,
        traj.coeffs - lin.coeffs,
        traj.gamma,
        {"kind": "remainder"},
    )


def gauge_phase(traj: Trajectory, n_trunc: float, sigma: float | None = None) -> np.ndarray:
    """Accumulated phase V(t) = integral of (mass(u(t')) - sigma) dt'.

    Trapezoid quadrature on the trajectory grid.  Along the Wick flow at
    gamma = 0 the mass is conserved, so V is exactly linear in t.
    """
    if sigma is None:
        sigma = mode_variance_sum(n_trunc)
    m = np.sum(np.abs(traj.coeffs) ** 2, axis=1) - sigma
    h = traj.h
    v = np.zeros(traj.n_snapshots)
    v[1:] = np.cumsum(0.5 * h * (m[1:] + m[:-1]))
    return v


def apply_gauge(
    traj: Trajectory, n_trunc: float, sigma: float | None = None, weight: float = 2.0
) -> Trajectory:
    """Multiply each snapshot by exp(i * weight * V(t)).

    With weight 2 this intertwines the gamma = 0 Wick flow with the
    dynamically renormalized flow: the Wick drift subtracts 2*sigma
    where the dynamic one subtracts 2*mass, and the mismatch
    2*(mass - sigma) is exactly the phase rate removed here.
    """
    v = gauge_phase(traj, n_trunc, sigma)
    factor = np.exp(1j * weight * v)[:, None]
    return Trajectory(
        traj.lattice,
        traj.times,
        traj.coeffs * factor,
        traj.gamma,
        {"kind": "gauged", "weight": weight},
    )


def _duhamel_weights(lattice: ModeLattice, gamma: float, h: float):
    """Exponential-trapezoid weights (w_left, w_right) of one step of size h.

    With a = (gamma+i) h <n>^2, w_left = h (phi1 - phi2) and w_right = h phi2,
    where phi1(a) = (1-e^{-a})/a and phi2(a) = (a-1+e^{-a})/a^2, evaluated
    by their power series near a = 0.
    """
    a = (gamma + 1j) * h * lattice.brackets**2
    small = np.abs(a) < 1e-2
    safe = np.where(small, 1.0, a)
    phi1 = (1.0 - np.exp(-safe)) / safe
    phi2 = (safe - 1.0 + np.exp(-safe)) / safe**2
    # series sum_k (-a)^k/(k+1)! and sum_k (-a)^k (k+1)/(k+2)!
    s1 = np.zeros_like(a)
    s2 = np.zeros_like(a)
    for k in range(7, -1, -1):
        s1 = s1 * (-a) + 1.0 / math.factorial(k + 1)
        s2 = s2 * (-a) + (k + 1.0) / math.factorial(k + 2)
    phi1 = np.where(small, s1, phi1)
    phi2 = np.where(small, s2, phi2)
    return h * (phi1 - phi2), h * phi2


def duhamel(forcing: Trajectory, gamma: float | None = None) -> Trajectory:
    """Retarded integral I(t) = int_0^t exp(-(gamma+i)(t-s)<n>^2) F(s) ds.

    Mode-wise recursion with exponential-trapezoid weights (the forcing
    is interpolated linearly on each step, the kernel integrated
    exactly); second-order accurate and exact for constant forcing.
    """
    if gamma is None:
        gamma = forcing.gamma
    lat = forcing.lattice
    h = forcing.h
    decay = np.exp(-(gamma + 1j) * h * lat.brackets**2)
    w_left, w_right = _duhamel_weights(lat, gamma, h)
    out = np.zeros_like(forcing.coeffs)
    for k in range(forcing.n_snapshots - 1):
        out[k + 1] = decay * out[k] + w_left * forcing.coeffs[k] + w_right * forcing.coeffs[k + 1]
    return Trajectory(lat, forcing.times, out, gamma, {"kind": "duhamel"})


@dataclass
class PicardResult:
    trajectory: Trajectory
    residuals: list
    contraction_ratios: list
    converged: bool


def picard_remainder(
    ansatz: Trajectory,
    n_trunc: float,
    gamma: float | None = None,
    max_iter: int = 12,
    tol: float = 1e-10,
) -> PicardResult:
    """Solve the remainder integral equation by Picard iteration.

    With b the linear ansatz and T/R the pairing-free and resonant
    trilinear forms, the fixed-point map is

      v -> -(gamma+i) P_trunc I[ T(v,v,v) + T(b,b,b) + 2 T(b,v,v)
             + T(v,b,v) + 2 T(v,b,b) + T(b,v,b) - R(b+v, b+v, b+v) ],

    where I is the retarded linear integral.  Iteration starts at v = 0;
    successive ell^2-in-time differences report the contraction factor.
    """
    if gamma is None:
        gamma = ansatz.gamma
    lat = ansatz.lattice
    K = ansatz.n_snapshots
    mask = (lat.brackets <= n_trunc + 1e-12).astype(np.float64)

    b = ansatz.coeffs * mask
    f_bbb = nonpairing_batch(lat, b, b, b)

    v = np.zeros_like(ansatz.coeffs)
    residuals: list = []
    ratios: list = []
    prev_diff = None
    converged = False
    for _ in range(max_iter):
        forcing = f_bbb.copy()
        forcing += nonpairing_batch(lat, v, v, v)
        forcing += 2.0 * nonpairing_batch(lat, b, v, v)
        forcing += nonpairing_batch(lat, v, b, v)
        forcing += 2.0 * nonpairing_batch(lat, v, b, b)
        forcing += nonpairing_batch(lat, b, v, b)
        s = b + v
        forcing -= s * np.conj(s) * s
        integrated = duhamel(
            Trajectory(lat, ansatz.times, forcing, gamma), gamma
        ).coeffs
        v_new = -(gamma + 1j) * integrated * mask
        diff = float(np.sqrt(np.mean(np.abs(v_new - v) ** 2)))
        residuals.append(diff)
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        prev_diff = diff
        v = v_new
        if diff < tol:
            converged = True
            break
    traj = Trajectory(lat, ansatz.times, v, gamma, {"kind": "picard_remainder"})
    return PicardResult(traj, residuals, ratios, converged)
