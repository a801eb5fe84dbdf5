"""Linear evolution, stochastic flows, gauge transforms, and the
remainder integral equation.

Conventions.  The linear semigroup acts mode-wise as
exp(-(gamma*t + i*t') <n>^2) for t >= 0; with t' = t this is the
dissipative-dispersive propagator exp((gamma+i) t (Lap - 1)).  Fields
live on the retained modes of their lattice, the only truncation.  The
linear equation driven by sqrt(2*gamma) times white noise has the exact
mode-wise Ornstein-Uhlenbeck recursion

    Psi(t_{k+1}) = exp(-(gamma+i) h <n>^2) Psi(t_k) + eta_k,
    E|eta_k|^2 = (1 - exp(-2 gamma h <n>^2)) / <n>^2,

where eta_k is a deterministic per-mode rescaling of the driving-path
increment, so flows at different gamma driven by the same path are
coupled realization by realization.  It and the exponential-trapezoid
recursion of the retarded integral have one copy each, `_ou_steps` and
`_duhamel_steps`: `linear_evolution` and `duhamel` store their states,
and the regularity scan streams them.

The time integrator is Strang splitting with the exact linear/noise
step; the nonlinear substep is an exact pointwise phase rotation when
gamma = 0 (modulus preserving, hence mass conserving before the
projection onto the retained modes) and an explicit Euler update
otherwise.  `lockstep` advances a stack of states, one damping per row,
in one batched step; `evolve` is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .gibbs import mode_variance_sum
from .noise import NoisePath
from .nonlinearity import mass, nonpairing_batch, renormalized_cubic, wick_cubic
from .spectral import FourierField, ModeLattice, _sq_norms

__all__ = [
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
PICARD_MAX_ITER = 12  # Picard steps before picard_remainder gives up
PICARD_TOL = 1e-10  # ell^2-in-time step size at which the iteration has converged


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


def _check_damping(gamma: float | np.ndarray) -> None:
    """Raise ValueError unless every damping in `gamma` is finite and >= 0."""
    gamma = np.asarray(gamma, dtype=np.float64)
    bad = ~(np.isfinite(gamma) & (gamma >= 0.0))
    if bad.any():
        raise ValueError(f"gamma must be finite and >= 0, got {gamma[bad].tolist()}")


def _ou_factors(lattice: ModeLattice, gamma: float | np.ndarray, h: float):
    """Per-mode decay factor and increment rescaling for one step of size h.

    `gamma` is a float or an array of shape (..., 1) for per-row dampings.
    """
    q = lattice.brackets**2
    decay = np.exp(-(gamma + 1j) * h * q)
    var = -np.expm1(-2.0 * gamma * h * q) / q  # (1 - e^{-2 gamma h q})/q, 0 at gamma 0
    scale = np.sqrt(var / h)  # driving increments have E|DB|^2 = h
    return decay, scale


def _ou_steps(
    lattice: ModeLattice, gamma: float, h: float, c: np.ndarray,
    increments: Iterable
) -> Iterator[np.ndarray]:
    """The Ornstein-Uhlenbeck recursion from data c: yields the state after
    each step of size h, each driven by one item of `increments` (at gamma
    = 0, where the noise scale is zero, it only counts the steps).  The next
    step may overwrite a yielded array, so linear_evolution copies each state
    and the regularity scan uses it at once."""
    decay, scale = _ou_factors(lattice, gamma, h)
    noisy = scale.any()
    for inc in increments:
        c = decay * c
        if noisy:
            c += scale * inc
        yield c


def linear_evolution(phi: FourierField, path: NoisePath, gamma: float) -> "Trajectory":
    """Propagated data plus stochastic convolution (the linear ansatz); from
    zero data, the stochastic convolution alone."""
    lat = path.lattice
    out = np.empty((path.n_steps + 1, lat.n_modes), dtype=np.complex128)
    out[0] = phi.coeffs
    for k, c in enumerate(_ou_steps(lat, gamma, path.h, out[0], path.increments)):
        out[k + 1] = c
    return Trajectory(lat, path.times, out, gamma)


@dataclass
class DynamicsConfig:
    """Settings of the renormalized flow.

    `gamma` is a float, or for `lockstep` an array of per-row dampings
    broadcastable to the stack's leading shape; each must be finite and
    >= 0, and `renormalization` 'wick' or 'dynamic' (ValueError otherwise).
    The Wick drift subtracts 2*sigma, with sigma = mode_variance_sum of the
    lattice's cutoff.
    """

    gamma: float | np.ndarray
    renormalization: str = "dynamic"  # 'dynamic': subtract 2*mass(u); 'wick': 2*sigma
    nonlinearity_on: bool = True

    def __post_init__(self):
        if self.renormalization not in ("wick", "dynamic"):
            raise ValueError("renormalization must be 'wick' or 'dynamic', "
                             f"got {self.renormalization!r}")
        _check_damping(self.gamma)


@dataclass
class Trajectory:
    lattice: ModeLattice
    times: np.ndarray
    coeffs: np.ndarray  # shape (n_snapshots, n_modes)
    gamma: float

    @property
    def n_snapshots(self) -> int:
        return self.coeffs.shape[0]

    @property
    def h(self) -> float:
        return float(self.times[1] - self.times[0])

    def snapshot(self, k: int) -> FourierField:
        return FourierField(self.lattice, self.coeffs[k].copy())


def _nonlinear_substep(
    u: FourierField, rot: np.ndarray, h_damped: np.ndarray, sigma: float | None,
    h: float
) -> np.ndarray:
    """Nonlinear substep of size h on the stack u.

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
    return out


def lockstep(
    phi: FourierField, increments: Iterable[np.ndarray], h: float, cfg: DynamicsConfig
) -> Iterator[np.ndarray]:
    """Advance a stack of states in lockstep, one damping per row.

    `phi.coeffs` has shape (..., n_modes) and `cfg.gamma` broadcasts
    against its leading shape; the stack has their common shape.  Each item
    of `increments` drives one step and broadcasts against the stack, so
    rows can share a path.  Yields a copy of the data, then the state after
    each step; the arrays are not modified later.  A row equals the
    one-row `evolve` at its damping and path bit for bit.
    """
    lat = phi.lattice
    gamma = np.asarray(cfg.gamma, dtype=np.float64)
    shape = np.broadcast_shapes(phi.coeffs.shape[:-1], gamma.shape)
    g = gamma[..., None]
    decay_half = np.exp(-(g + 1j) * (h / 2.0) * lat.brackets**2)
    _, scale = _ou_factors(lat, g, h)
    rows = np.broadcast_to(gamma, shape)
    rot = rows == 0.0
    h_damped = h * (rows[~rot][:, None] + 1j)
    sigma = mode_variance_sum(lat.n_cut) if cfg.renormalization == "wick" else None

    c = np.broadcast_to(phi.coeffs.copy(), shape + (lat.n_modes,))
    yield c
    for k, inc in enumerate(increments):
        c = c * decay_half
        if cfg.nonlinearity_on:
            c = _nonlinear_substep(FourierField(lat, c), rot, h_damped, sigma, h)
        c = c * decay_half + scale * inc
        m = _sq_norms(c).ravel()
        if np.any(m > MASS_BLOWUP_LIMIT):
            r = int(np.flatnonzero(m > MASS_BLOWUP_LIMIT)[0])
            raise MassBlowUpError(k, float(m[r]), r)
        yield c


def evolve(phi: FourierField, path: NoisePath, cfg: DynamicsConfig) -> Trajectory:
    """Integrate the renormalized flow on the lattice along the driving path.

    One step of size h: exact linear half step, nonlinear substep of
    size h, exact linear half step, then the Ornstein-Uhlenbeck noise
    increment.  With the nonlinearity switched off this reproduces
    linear_evolution to rounding.  The one-row case of `lockstep`.
    """
    lat = path.lattice
    out = np.empty((path.n_steps + 1, lat.n_modes), dtype=np.complex128)
    stack = FourierField(lat, phi.coeffs[None])
    for k, c in enumerate(lockstep(stack, path.increments, path.h, cfg)):
        out[k] = c[0]
    return Trajectory(lat, path.times, out, cfg.gamma)


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


def extract_remainder(traj: Trajectory, phi: FourierField, path: NoisePath) -> Trajectory:
    """Subtract the linear ansatz (propagated data + convolution) from a run."""
    lin = linear_evolution(phi, path, traj.gamma)
    return Trajectory(traj.lattice, traj.times, traj.coeffs - lin.coeffs,
                      traj.gamma)


def gauge_phase(traj: Trajectory) -> np.ndarray:
    """Accumulated phase V(t) = integral of (mass(u(t')) - sigma) dt', with
    sigma = mode_variance_sum of the lattice's cutoff.

    Trapezoid quadrature on the trajectory grid.  Along the Wick flow at
    gamma = 0 the mass is conserved, so V is exactly linear in t.
    """
    sigma = mode_variance_sum(traj.lattice.n_cut)
    m = np.sum(np.abs(traj.coeffs) ** 2, axis=1) - sigma
    h = traj.h
    v = np.zeros(traj.n_snapshots)
    v[1:] = np.cumsum(0.5 * h * (m[1:] + m[:-1]))
    return v


def apply_gauge(traj: Trajectory) -> Trajectory:
    """Multiply each snapshot by exp(2i V(t)).

    This intertwines the gamma = 0 Wick flow with the dynamically
    renormalized flow: the Wick drift subtracts 2*sigma where the dynamic
    one subtracts 2*mass, and the mismatch 2*(mass - sigma) is exactly the
    phase rate removed here.
    """
    factor = np.exp(2j * gauge_phase(traj))[:, None]
    return Trajectory(traj.lattice, traj.times, traj.coeffs * factor, traj.gamma)


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


def _duhamel_steps(
    lattice: ModeLattice, gamma: float, h: float, forcing: Iterable
) -> Iterator[np.ndarray]:
    """The exponential-trapezoid recursion of the retarded integral, from
    I(t_0) = 0: the items of `forcing` are F(t_0), F(t_1), ..., and each one
    after the first yields I at its time.  I is updated in place, left to
    right as decay*I + w_left*F(t_k) + w_right*F(t_k+1), whose bits it keeps:
    the next step may overwrite a yielded array (duhamel copies each state).
    No product is taken in place: numpy multiplies a one-element array in
    place by a loop with other rounding."""
    decay = np.exp(-(gamma + 1j) * h * lattice.brackets**2)
    w_left, w_right = _duhamel_weights(lattice, gamma, h)
    forcing = iter(forcing)
    prev = next(forcing)
    out = np.zeros_like(prev)
    term = np.empty_like(out)
    for f in forcing:
        np.add(np.multiply(decay, out, out=term), w_left * prev, out=out)
        out += w_right * f
        prev = f
        yield out


def duhamel(forcing: Trajectory) -> Trajectory:
    """Retarded integral I(t) = int_0^t exp(-(gamma+i)(t-s)<n>^2) F(s) ds,
    with gamma the forcing trajectory's damping.

    Mode-wise recursion with exponential-trapezoid weights (the forcing
    is interpolated linearly on each step, the kernel integrated
    exactly); second-order accurate and exact for constant forcing.
    """
    out = np.zeros_like(forcing.coeffs)
    for k, c in enumerate(_duhamel_steps(forcing.lattice, forcing.gamma, forcing.h,
                                         forcing.coeffs)):
        out[k + 1] = c
    return Trajectory(forcing.lattice, forcing.times, out, forcing.gamma)


@dataclass
class PicardResult:
    trajectory: Trajectory
    residuals: list
    contraction_ratios: list
    converged: bool


def picard_remainder(ansatz: Trajectory) -> PicardResult:
    """Solve the remainder integral equation by Picard iteration.

    With b the linear ansatz at damping gamma and T/R the pairing-free and
    resonant trilinear forms, the fixed-point map is

      v -> -(gamma+i) I[ T(v,v,v) + T(b,b,b) + 2 T(b,v,v)
             + T(v,b,v) + 2 T(v,b,b) + T(b,v,b) - R(b+v, b+v, b+v) ],

    where I is the retarded linear integral.  Iteration starts at v = 0
    and stops after PICARD_MAX_ITER steps or once a step moves v by less
    than PICARD_TOL; successive ell^2-in-time differences report the
    contraction factor.
    """
    gamma = ansatz.gamma
    lat = ansatz.lattice
    b = ansatz.coeffs
    f_bbb = nonpairing_batch(lat, b, b, b)

    v = np.zeros_like(ansatz.coeffs)
    residuals: list = []
    ratios: list = []
    prev_diff = None
    converged = False
    for _ in range(PICARD_MAX_ITER):
        forcing = f_bbb.copy()
        forcing += nonpairing_batch(lat, v, v, v)
        forcing += 2.0 * nonpairing_batch(lat, b, v, v)
        forcing += nonpairing_batch(lat, v, b, v)
        forcing += 2.0 * nonpairing_batch(lat, v, b, b)
        forcing += nonpairing_batch(lat, b, v, b)
        s = b + v
        forcing -= s * np.conj(s) * s
        integrated = duhamel(Trajectory(lat, ansatz.times, forcing, gamma)).coeffs
        v_new = -(gamma + 1j) * integrated
        diff = float(np.sqrt(np.mean(np.abs(v_new - v) ** 2)))
        residuals.append(diff)
        if prev_diff is not None and prev_diff > 0:
            ratios.append(diff / prev_diff)
        prev_diff = diff
        v = v_new
        if diff < PICARD_TOL:
            converged = True
            break
    traj = Trajectory(lat, ansatz.times, v, gamma)
    return PicardResult(traj, residuals, ratios, converged)
