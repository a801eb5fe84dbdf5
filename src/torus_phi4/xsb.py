"""Twisted space-time spectral analysis.

Tools for measuring dispersive regularity of trajectories on the torus:

* a *twisted* space-time Fourier transform that removes the free Schrodinger
  phase ``exp(-i t <n>^2)`` mode by mode before taking a discrete-time
  Fourier transform of a smoothly windowed trajectory;
* weighted ``l^2_n L^2_lambda`` norms of the twisted spectrum (the desk-scale
  surrogate for dispersive restriction norms), with spatial weight
  ``<n>^(2s)`` and temporal weight ``<lambda>^(2b)``;
* the oscillatory Duhamel symbol ``K_gamma(n, lambda, mu)`` together with
  sweep harnesses for its decay and Lipschitz-in-gamma bounds; and
* an empirical L^4 space-time estimate for frequency-localized fields.

Conventions.  For a trajectory sampled at uniform times ``t_k`` on ``[0, T]``
the twisted spectrum is

    F(n, lam) = (h / 2 pi) * sum_k chi(t_k) u_hat(n, t_k)
                  * exp(+i t_k <n>^2) * exp(-i lam t_k),

evaluated on the DFT frequency grid ``lam_j = 2 pi j / (M h)`` of a
zero-padded length-``M`` transform.  With this normalization the discrete
Plancherel identity

    dlam * sum_j |F(n, lam_j)|^2 = (1 / 2 pi) * h * sum_k |chi u_hat|^2

holds exactly (``dlam = 2 pi / (M h)``), so the ``s = b = 0`` norm equals the
windowed ``L^2`` norm of the trajectory up to the fixed constant ``2 pi``
from the spatial Plancherel convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, fftfreq, next_fast_len

from .spectral import ModeLattice
from .flows import Trajectory

__all__ = [
    "smooth_bump",
    "trajectory_window",
    "TwistedSpectrum",
    "twisted_transform",
    "xsb_norm",
    "sup_time_sobolev",
    "duhamel_symbol",
    "symbol_decay_sweep",
    "symbol_lipschitz_sweep",
    "l4_ratio_scan",
]


ROLLOFF = 0.25  # fraction of a trajectory's span over which its window rises or falls
PAD_FACTOR = 4  # zero padding of the twisted transform, in trajectory lengths
LAM_SCALE = 60.0  # Cauchy scale of the frequencies in symbol_decay_sweep
BRACKET_MAX = 16  # largest mode coordinate drawn by the symbol sweeps
GAUSS_ORDER = 10  # Gauss-Legendre nodes per panel of the symbol quadrature
L4_HORIZON = 1.0  # time span of the fields of l4_ratio_scan
L4_N_STEPS = 256  # time steps of the fields of l4_ratio_scan
L4_N_FREQS = 8  # temporal frequencies per mode of the fields of l4_ratio_scan


# ---------------------------------------------------------------------------
# smooth windows
# ---------------------------------------------------------------------------

def _bump_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, smooth in between."""
    x = np.asarray(x, dtype=float)
    fx = np.zeros_like(x)
    fy = np.zeros_like(x)
    pos = x > 0.0
    fx[pos] = np.exp(-1.0 / x[pos])
    neg = x < 1.0
    fy[neg] = np.exp(-1.0 / (1.0 - x[neg]))
    return fx / (fx + fy)


def smooth_bump(x: np.ndarray, lo: float, flat_lo: float,
                flat_hi: float, hi: float) -> np.ndarray:
    """C-infinity bump supported on [lo, hi], identically 1 on
    [flat_lo, flat_hi], monotone on the two rolloff intervals."""
    x = np.asarray(x, dtype=float)
    up = _bump_step((x - lo) / (flat_lo - lo)) if flat_lo > lo else (x >= lo) * 1.0
    down = _bump_step((hi - x) / (hi - flat_hi)) if hi > flat_hi else (x <= hi) * 1.0
    return up * down


def trajectory_window(times: np.ndarray) -> np.ndarray:
    """Analysis window for a trajectory on [t0, t1]: identically 1 on the
    central portion, smooth rolloff to 0 over the first and last ROLLOFF
    fraction of the interval.

    The trajectory is only known on its own time interval, so the window
    must vanish at both endpoints to avoid spurious high-frequency content
    from the implicit zero extension.
    """
    t = np.asarray(times, dtype=float)
    t0, t1 = float(t[0]), float(t[-1])
    span = t1 - t0
    return smooth_bump(t, t0, t0 + ROLLOFF * span, t1 - ROLLOFF * span, t1)


# ---------------------------------------------------------------------------
# twisted transform
# ---------------------------------------------------------------------------

@dataclass
class TwistedSpectrum:
    """Windowed twisted space-time spectrum of a trajectory.

    values[j, k] is the amplitude at temporal frequency lambdas[j] and
    spatial mode lattice.modes[k].
    """

    lattice: ModeLattice
    lambdas: np.ndarray        # (n_freq,) float, DFT grid (fftfreq order)
    values: np.ndarray         # (n_freq, n_modes) complex
    dlam: float

    def weighted_sq(self, s: float, b: float) -> float:
        """dlam * sum <n>^{2s} <lam>^{2b} |F|^2."""
        wn = self.lattice.brackets.astype(float) ** (2.0 * s)
        wl = (1.0 + self.lambdas ** 2) ** b
        return float(self.dlam * np.einsum(
            "j,k,jk->", wl, wn, np.abs(self.values) ** 2))


def twisted_transform(traj: Trajectory) -> TwistedSpectrum:
    """Windowed, twisted space-time transform of a uniformly sampled
    trajectory.

    Per mode n the free phase exp(-i t <n>^2) is removed by modulation
    before a DFT in time, zero-padded to PAD_FACTOR times the trajectory's
    length, so a solution of the linear Schrodinger flow concentrates at
    lambda = 0 for every mode.
    """
    times = traj.times
    if len(times) < 2:
        raise ValueError("trajectory must contain at least two snapshots")
    h = float(times[1] - times[0])
    if not np.allclose(np.diff(times), h, rtol=0.0, atol=1e-9 * max(h, 1.0)):
        raise ValueError("twisted_transform requires a uniform time grid")
    chi = trajectory_window(times)
    q = traj.lattice.brackets.astype(float) ** 2
    twisted = traj.coeffs * np.exp(1j * np.outer(times, q)) * chi[:, None]
    m = next_fast_len(PAD_FACTOR * len(times))
    spec = fft(twisted, n=m, axis=0) * (h / (2.0 * np.pi))
    lambdas = 2.0 * np.pi * fftfreq(m, d=h)
    dlam = 2.0 * np.pi / (m * h)
    return TwistedSpectrum(lattice=traj.lattice, lambdas=lambdas, values=spec,
                           dlam=dlam)


def xsb_norm(spec: TwistedSpectrum, s: float, b: float) -> float:
    """Weighted norm sqrt(dlam * sum <n>^{2s} <lam>^{2b} |F|^2)."""
    return float(np.sqrt(spec.weighted_sq(s, b)))


def sup_time_sobolev(traj: Trajectory, s: float) -> float:
    """sup over central-window times of the spatial H^s norm (the left side
    of the continuous-embedding check against xsb_norm with b > 1/2)."""
    central = trajectory_window(traj.times) >= 1.0 - 1e-12
    if not central.any():
        raise ValueError("trajectory has no snapshot where its window is 1: "
                         f"{traj.n_snapshots} snapshots leave the central "
                         f"{1.0 - 2.0 * ROLLOFF:g} of its span empty")
    wn = traj.lattice.brackets.astype(float) ** (2.0 * s)
    sq = (np.abs(traj.coeffs) ** 2 * wn[None, :]).sum(axis=1)
    return float(np.sqrt(sq[central].max()))


# ---------------------------------------------------------------------------
# Duhamel symbol
# ---------------------------------------------------------------------------

def _reference_window(t: np.ndarray) -> np.ndarray:
    """Even C-infinity cutoff: 1 on [-1, 1], supported in [-2, 2]."""
    return smooth_bump(t, -2.0, -1.0, 1.0, 2.0)


def _phi1_series(z: np.ndarray) -> np.ndarray:
    """Truncated series for (e^z - 1)/z = sum_k z^k / (k+1)!."""
    z = np.asarray(z, dtype=complex)
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, 10):
        term = term * z / (k + 1.0)
        total = total + term
    return total


def _gauss_nodes(n_panels: int):
    """Composite Gauss-Legendre nodes/weights on [-2, 2]."""
    x0, w0 = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    edges = np.linspace(-2.0, 2.0, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def duhamel_symbol(gamma: float, bracket_sq: float, lam: float,
                   mu: float) -> complex:
    """Oscillatory symbol of the windowed Duhamel map at one frequency pair.

    K(gamma, q, lam, mu) = integral of
        chi(t) e^{-i t lam} (e^{gamma (t - |t|) q + i t mu}
                              - e^{-gamma |t| q}) / (gamma q + i mu) dt
    over t in [-2, 2], with the removable singularity at
    gamma q + i mu = 0 handled by the bounded rewrite
        numerator / w = e^{-gamma |t| q} * t * phi1(t w),
    w = gamma q + i mu, phi1(z) = (e^z - 1)/z.
    """
    a = float(gamma) * float(bracket_sq)
    w = a + 1j * float(mu)
    freq = abs(lam) + abs(mu) + abs(a)
    n_panels = max(64, int(np.ceil(freq * 4.0 / np.pi)))
    n_panels = min(n_panels, 4096)
    t, wt = _gauss_nodes(n_panels)
    chi = _reference_window(t)
    # numerator/w evaluated branchwise with only decaying exponentials:
    #   t >= 0:  (e^{i t mu} - e^{-t a}) / w
    #   t < 0 :  (e^{t (2a + i mu)} - e^{t a}) / w
    # and the small-|t w| regime via e^{-a|t|} * t * phi1(t w).
    pos = t >= 0.0
    num = np.empty(t.shape, dtype=complex)
    tp, tn = t[pos], t[~pos]
    num[pos] = np.exp(1j * mu * tp) - np.exp(-a * tp)
    num[~pos] = np.exp(tn * (2.0 * a + 1j * mu)) - np.exp(a * tn)
    small = np.abs(t * w) < 1e-2
    core = np.empty_like(num)
    safe_w = w if abs(w) > 0.0 else 1.0
    core[~small] = num[~small] / safe_w
    core[small] = (np.exp(-a * np.abs(t[small])) * t[small]
                   * _phi1_series(t[small] * w))
    integrand = chi * np.exp(-1j * lam * t) * core
    return complex(np.sum(wt * integrand))


def _symbol_bound(gamma: float, q: float, lam: float, mu: float) -> float:
    """Right-hand side of the symbol decay bound (without the constant)."""
    a = gamma * q
    jw = np.sqrt(1.0 + a * a + mu * mu)
    jl = np.sqrt(1.0 + lam * lam)
    jlm = np.sqrt(1.0 + (lam - mu) ** 2)
    ja = np.sqrt(1.0 + a * a)
    return (1.0 / jw) * min(1.0 / jl + 1.0 / jlm,
                            ja * (1.0 / jl ** 2 + 1.0 / jlm ** 2))


def symbol_decay_sweep(n_points: int = 10_000, seed: int = 0) -> dict:
    """Random sweep of |K| against the decay bound.

    Returns the fitted constants (max and high quantiles of the ratio
    |K| / bound) together with a trend diagnostic: the fitted slope of
    log(ratio) against log(1 + |lambda| + |mu|).  A bound that genuinely
    holds shows a bounded ratio with non-positive trend.
    """
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.0, 1.0, n_points)
    ns = rng.integers(0, BRACKET_MAX + 1, (n_points, 2))
    qs = 1.0 + (ns ** 2).sum(axis=1).astype(float)
    lams = rng.standard_cauchy(n_points) * LAM_SCALE
    mus = rng.standard_cauchy(n_points) * LAM_SCALE
    lams = np.clip(lams, -2e3, 2e3)
    mus = np.clip(mus, -2e3, 2e3)
    ratios = np.empty(n_points)
    for i in range(n_points):
        val = abs(duhamel_symbol(gammas[i], qs[i], lams[i], mus[i]))
        ratios[i] = val / _symbol_bound(gammas[i], qs[i], lams[i], mus[i])
    x = np.log1p(np.abs(lams) + np.abs(mus))
    slope = float(np.polyfit(x, np.log(np.maximum(ratios, 1e-300)), 1)[0])
    return {
        "max_ratio": float(ratios.max()),
        "q99_ratio": float(np.quantile(ratios, 0.99)),
        "median_ratio": float(np.median(ratios)),
        "trend_slope": slope,
    }


def symbol_lipschitz_sweep(n_points: int = 2000, seed: int = 1) -> dict:
    """Random sweep of |K(gamma2) - K(gamma1)| / (|gamma2 - gamma1| <n>^2)."""
    rng = np.random.default_rng(seed)
    ratios = np.empty(n_points)
    for i in range(n_points):
        g1, g2 = np.sort(rng.uniform(0.0, 1.0, 2))
        if g2 - g1 < 1e-6:
            g2 = g1 + 1e-6
        n = rng.integers(0, BRACKET_MAX + 1, 2)
        q = 1.0 + float((n ** 2).sum())
        lam = float(np.clip(rng.standard_cauchy() * 30.0, -500, 500))
        mu = float(np.clip(rng.standard_cauchy() * 30.0, -500, 500))
        diff = abs(duhamel_symbol(g2, q, lam, mu)
                   - duhamel_symbol(g1, q, lam, mu))
        ratios[i] = diff / ((g2 - g1) * q)
    return {
        "max_ratio": float(ratios.max()),
        "q99_ratio": float(np.quantile(ratios, 0.99)),
        "median_ratio": float(np.median(ratios)),
    }


# ---------------------------------------------------------------------------
# L^4 space-time estimate
# ---------------------------------------------------------------------------

def _synthesize_trajectory(lattice: ModeLattice, mode_mask: np.ndarray,
                           rng: np.random.Generator) -> Trajectory:
    """Random field supported on the masked modes: a superposition of
    twisted exponentials u_hat(n, t) = e^{-i t <n>^2} sum_j c_{n j}
    e^{i t lam_j} with a few random temporal frequencies per mode."""
    q = lattice.brackets.astype(float) ** 2
    times = np.linspace(0.0, L4_HORIZON, L4_N_STEPS + 1)
    idx = np.flatnonzero(mode_mask)
    coeffs = np.zeros((len(times), lattice.n_modes), dtype=np.complex128)
    lam = rng.uniform(-8.0, 8.0, (len(idx), L4_N_FREQS))
    c = (rng.standard_normal((len(idx), L4_N_FREQS))
         + 1j * rng.standard_normal((len(idx), L4_N_FREQS))) / np.sqrt(2.0)
    osc = np.exp(1j * times[:, None, None] * lam[None, :, :])  # (t, m, f)
    coeffs[:, idx] = (osc * c[None, :, :]).sum(axis=2)
    coeffs *= np.exp(-1j * np.outer(times, q))
    return Trajectory(lattice=lattice, times=times, coeffs=coeffs, gamma=0.0)


def _l4_spacetime(traj: Trajectory, chi: np.ndarray) -> float:
    """(integral over the window of the grid-mean of |u|^4)^(1/4); exact for
    fields supported on the retained ball thanks to the padded grid."""
    phys = traj.lattice.to_grid(traj.coeffs)
    m4 = (np.abs(phys) ** 4).mean(axis=(-2, -1))
    h = traj.times[1] - traj.times[0]
    return float((h * np.sum(chi ** 4 * m4)) ** 0.25)


def l4_ratio_scan(ball_sizes=(1, 2, 4, 8, 16), ensemble: int = 8,
                  seed: int = 0) -> dict:
    """Empirical L^4 space-time estimate for frequency-localized fields.

    For each spatial frequency ball (all modes with <n> <= N) draws random
    band-limited fields, and records the worst ratio
    ||chi u||_{L^4_{x,t}} / xsb_norm(u; s=0, b=1/2).  Returns the per-ball
    mode counts, worst ratios, and the fitted growth exponent of the ratio
    in the ball cardinality |Q| (expected <= 0.1).
    """
    results = {"ball_size": [], "n_modes": [], "ratio": []}
    for nc in ball_sizes:
        lattice = ModeLattice(nc)
        mask = np.ones(lattice.n_modes, dtype=bool)
        worst = 0.0
        for member in range(ensemble):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, nc, member]))
            traj = _synthesize_trajectory(lattice, mask, rng)
            spec = twisted_transform(traj)
            denom = xsb_norm(spec, 0.0, 0.5)
            chi = trajectory_window(traj.times)
            num = _l4_spacetime(traj, chi)
            worst = max(worst, num / denom)
        results["ball_size"].append(nc)
        results["n_modes"].append(lattice.n_modes)
        results["ratio"].append(worst)
    x = np.log(np.asarray(results["n_modes"], dtype=float))
    y = np.log(np.asarray(results["ratio"], dtype=float))
    results["growth_exponent"] = float(np.polyfit(x, y, 1)[0])
    return results
