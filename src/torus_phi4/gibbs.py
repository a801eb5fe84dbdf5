"""Gaussian free field and quartic Gibbs measures on the mode lattice.

The reference Gaussian measure assigns independent standard complex
Gaussians g_n (E|g_n|^2 = 1) to each retained mode and sets
u_hat(n) = g_n / <n>, so that E|u_hat(n)|^2 = <n>^{-2}.

Two interaction potentials are provided:

* `renormalized_potential`: Phi(u) = -(1/4) avg|u_N|^4 - mass(u_N)^2,
  the sign-definite renormalized quartic interaction; the weight
  exp(Phi) is bounded by 1.

* `wick_potential`: (1/4) avg of the Wick quartic
  :|u|^4: = |u|^4 - 4*sigma*|u|^2 + 2*sigma^2, where sigma is the
  lattice variance sum; it has mean zero under the Gaussian measure and
  is bounded below by -sigma^2/2.

`wick_action` is the dynamics-consistent action: the Langevin drift of
the Wick-renormalized flow is the complex gradient of
(1/2) avg|u|^4 - 2*sigma*mass(u), which equals 2*wick_potential up to
an additive constant.  The stationary measure of that flow therefore
has density exp(-wick_action) against the Gaussian, and the sampler
targets exactly that when asked for the Wick ensemble.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .nonlinearity import mass, quartic_mean
from .spectral import FourierField, ModeLattice, project_leq

__all__ = [
    "sample_gff",
    "gaussian_from_standard",
    "mode_variance_sum",
    "renormalized_potential",
    "wick_potential",
    "wick_action",
    "PCNResult",
    "sample_gibbs_pcn",
    "sample_gibbs_pcn_chains",
    "check_exponential_moments",
]


@functools.lru_cache
def mode_variance_sum(n_cut: float) -> float:
    """sum of <n>^{-2} over modes with <n> <= n_cut (grows like 2*pi*log).

    Cached per cutoff: Wick integrators ask for it on every step.
    """
    lat = ModeLattice(n_cut)
    return float(np.sum(lat.brackets**-2.0))


def gaussian_from_standard(lattice: ModeLattice, g: np.ndarray) -> FourierField:
    """Free-field sample from a vector of standard complex Gaussians."""
    return FourierField(lattice, np.asarray(g, dtype=np.complex128) / lattice.brackets)


def sample_gff(lattice: ModeLattice, rng: np.random.Generator) -> FourierField:
    """Draw one free-field sample u_hat(n) = g_n / <n>."""
    g = (
        rng.standard_normal(lattice.n_modes) + 1j * rng.standard_normal(lattice.n_modes)
    ) / np.sqrt(2.0)
    return gaussian_from_standard(lattice, g)


def renormalized_potential(u: FourierField, n_cut: float) -> float:
    """Phi_N(u) = -(1/4) avg|u_N|^4 - mass(u_N)^2 with u_N the <n><=N part."""
    uN = project_leq(u, n_cut)
    return -0.25 * quartic_mean(uN) - mass(uN) ** 2


def wick_potential(u: FourierField, n_cut: float, sigma: float | None = None) -> float:
    """(1/4) avg(:|u_N|^4:) with the Wick constant of the same cutoff."""
    uN = project_leq(u, n_cut)
    if sigma is None:
        sigma = mode_variance_sum(n_cut)
    m2 = mass(uN)
    m4 = quartic_mean(uN)
    return 0.25 * (m4 - 4.0 * sigma * m2 + 2.0 * sigma**2)


def wick_action(u: FourierField, n_cut: float, sigma: float | None = None) -> float:
    """Dynamics-consistent Wick action 2*wick_potential (up to a constant).

    exp(-wick_action) d(gaussian) is the exact stationary law of the
    Wick-renormalized stochastic flow at the same cutoff; the factor two
    relative to wick_potential comes from the complex-gradient pairing
    (avg|u|^4 has gradient 2|u|^2 u in conj(u_hat)).
    """
    return 2.0 * wick_potential(u, n_cut, sigma)


@dataclass
class PCNResult:
    fields: list
    acceptance_rate: float
    potential_trace: np.ndarray
    beta: float
    n_steps: int


def sample_gibbs_pcn(
    lattice: ModeLattice,
    potential: str,
    n_samples: int,
    rng: np.random.Generator,
    beta: float = 0.3,
    burn_in: int = 500,
    thin: int = 10,
    n_cut: float | None = None,
) -> PCNResult:
    """Preconditioned Crank-Nicolson chain targeting exp(-Phi) d(gaussian).

    potential: 'quartic' for the sign-definite renormalized interaction
    (Phi = -renormalized_potential) or 'wick' for the dynamics-consistent
    Wick action.  The proposal u' = sqrt(1-beta^2) u + beta w (w a fresh
    free-field draw) is reversible for the Gaussian, so the acceptance
    ratio involves only the potential difference.
    """
    if n_cut is None:
        n_cut = lattice.n_cut
    if potential == "quartic":
        def phi(u):
            return -renormalized_potential(u, n_cut)
    elif potential == "wick":
        sigma = mode_variance_sum(n_cut)
        def phi(u):
            return wick_action(u, n_cut, sigma)
    else:
        raise ValueError("potential must be 'quartic' or 'wick'")

    u = sample_gff(lattice, rng)
    phi_u = phi(u)
    n_steps = burn_in + n_samples * thin
    accepted = 0
    fields = []
    trace = np.empty(n_steps)
    sq = np.sqrt(1.0 - beta**2)
    for k in range(n_steps):
        w = sample_gff(lattice, rng)
        prop = FourierField(lattice, sq * u.coeffs + beta * w.coeffs)
        phi_p = phi(prop)
        if np.log(rng.uniform()) < phi_u - phi_p:
            u, phi_u = prop, phi_p
            accepted += 1
        trace[k] = phi_u
        if k >= burn_in and (k - burn_in) % thin == thin - 1:
            fields.append(u.copy())
    rate = accepted / n_steps
    return PCNResult(fields, rate, trace, beta, n_steps)


def sample_gibbs_pcn_chains(
    lattice: ModeLattice,
    potential: str,
    n_chains: int,
    rng: np.random.Generator,
    beta: float = 0.1,
    n_steps: int = 20_000,
) -> PCNResult:
    """Independent pCN chains advanced in lockstep, one sample per chain.

    Because every returned field is the endpoint of its own chain, the
    samples are mutually independent — unlike thinned states of a single
    chain, whose residual correlation is hard to bound in slowly mixing
    regimes.  All chains share each step's batched FFT work, so the
    lockstep sweep costs little more than a single long chain.
    """
    if potential == "wick":
        sigma = mode_variance_sum(lattice.n_cut)

        def phi(m2, m4):
            return 0.5 * (m4 - 4.0 * sigma * m2 + 2.0 * sigma**2)
    elif potential == "quartic":
        def phi(m2, m4):
            return 0.25 * m4 + m2**2
    else:
        raise ValueError("potential must be 'quartic' or 'wick'")

    scale = 1.0 / (np.sqrt(2.0) * lattice.brackets)
    points = lattice.M**2

    def draw(n):
        g = rng.standard_normal((n, lattice.n_modes, 2)).view(np.complex128)
        return g[..., 0] * scale

    def moments(c):
        a = np.abs(c)
        a *= a
        m2 = a.sum(axis=1)
        g = lattice.to_grid(c)
        a = np.abs(g, out=lattice._workspace("real", g.shape, np.float64))
        a *= a
        a *= a
        return m2, a.sum(axis=(-2, -1)) / points

    u = draw(n_chains)
    phi_u = phi(*moments(u))
    sq = np.sqrt(1.0 - beta**2)
    accepted = 0
    trace = np.empty(n_steps)
    for k in range(n_steps):
        prop = sq * u + beta * draw(n_chains)
        phi_p = phi(*moments(prop))
        acc = np.log(rng.uniform(size=n_chains)) < phi_u - phi_p
        u[acc] = prop[acc]
        phi_u[acc] = phi_p[acc]
        accepted += int(acc.sum())
        trace[k] = phi_u.mean()
    fields = [FourierField(lattice, u[k].copy()) for k in range(n_chains)]
    return PCNResult(fields, accepted / (n_steps * n_chains), trace, beta, n_steps)


def check_exponential_moments(
    n_cuts: tuple = (4, 8, 16, 32),
    p: float = 4.0,
    n_samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo check of the weight-convergence properties.

    Under the Gaussian measure, with a single master lattice at the
    largest cutoff: the L^p norms of exp(Phi_N) are all <= 1 (the
    potential is nonpositive), and the L^2 distances between consecutive
    weights exp(Phi_{2N}) - exp(Phi_N) decrease in N (Cauchy behaviour).
    Returns the estimated moments and successive distances with standard
    errors.
    """
    n_cuts = tuple(sorted(n_cuts))
    rng = np.random.default_rng(seed)
    lat = ModeLattice(n_cuts[-1])
    moments = np.zeros(len(n_cuts))
    mom_sq = np.zeros(len(n_cuts))
    diffs = np.zeros(len(n_cuts) - 1)
    diff_sq = np.zeros(len(n_cuts) - 1)
    for _ in range(n_samples):
        u = sample_gff(lat, rng)
        w = np.array([np.exp(renormalized_potential(u, N)) for N in n_cuts])
        moments += w**p
        mom_sq += w ** (2 * p)
        d = (w[1:] - w[:-1]) ** 2
        diffs += d
        diff_sq += d**2
    moments /= n_samples
    mom_sq /= n_samples
    diffs /= n_samples
    diff_sq /= n_samples
    return {
        "n_cuts": n_cuts,
        "p": p,
        "lp_norms": moments ** (1.0 / p),
        "lp_se": np.sqrt(np.maximum(mom_sq - moments**2, 0.0) / n_samples),
        "l2_diffs": np.sqrt(diffs),
        "l2_diff_se": np.sqrt(np.maximum(diff_sq - diffs**2, 0.0) / n_samples)
        / (2.0 * np.sqrt(np.maximum(diffs, 1e-300))),
        "n_samples": n_samples,
    }
