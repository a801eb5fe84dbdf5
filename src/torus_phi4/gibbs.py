"""Gaussian free field and quartic Gibbs measures on the mode lattice.

The reference Gaussian measure assigns independent standard complex
Gaussians g_n (E|g_n|^2 = 1) to each retained mode and sets
u_hat(n) = g_n / <n>, so that E|u_hat(n)|^2 = <n>^{-2}.

Two interaction potentials are provided:

* `renormalized_potential`: Phi(u) = -(1/4) avg|u|^4 - mass(u)^2,
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

from .spectral import FourierField, ModeLattice

__all__ = [
    "sample_gff",
    "mode_variance_sum",
    "renormalized_potential",
    "wick_potential",
    "wick_action",
    "PCNResult",
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


def sample_gff(lattice: ModeLattice, rng: np.random.Generator) -> FourierField:
    """Draw one free-field sample u_hat(n) = g_n / <n>."""
    g = (
        rng.standard_normal(lattice.n_modes) + 1j * rng.standard_normal(lattice.n_modes)
    ) / np.sqrt(2.0)
    return FourierField(lattice, g / lattice.brackets)


def renormalized_potential(u: FourierField) -> float | np.ndarray:
    """Phi_N(u) = -(1/4) avg|u|^4 - mass(u)^2 at the lattice's cutoff N.

    A float for one field, an array of the leading shape for a stack.
    """
    m2, m4 = u.lattice._moments(u.coeffs)
    phi = -0.25 * m4 - m2**2
    return float(phi) if phi.ndim == 0 else phi


def wick_potential(u: FourierField) -> float | np.ndarray:
    """(1/4) avg(:|u|^4:) with the Wick constant of the lattice's cutoff.

    A float for one field, an array of the leading shape for a stack.
    """
    sigma = mode_variance_sum(u.lattice.n_cut)
    m2, m4 = u.lattice._moments(u.coeffs)
    w = 0.25 * (m4 - 4.0 * sigma * m2 + 2.0 * sigma**2)
    return float(w) if w.ndim == 0 else w


def wick_action(u: FourierField) -> float | np.ndarray:
    """Dynamics-consistent Wick action 2*wick_potential (up to a constant).

    exp(-wick_action) d(gaussian) is the exact stationary law of the
    Wick-renormalized stochastic flow at the same cutoff; the factor two
    relative to wick_potential comes from the complex-gradient pairing
    (avg|u|^4 has gradient 2|u|^2 u in conj(u_hat)).
    """
    return 2.0 * wick_potential(u)


@dataclass
class PCNResult:
    fields: list
    acceptance_rate: float
    potential_trace: np.ndarray
    beta: float
    n_steps: int


def sample_gibbs_pcn_chains(
    lattice: ModeLattice,
    potential: str,
    n_chains: int,
    rng: np.random.Generator,
    beta: float = 0.1,
    n_steps: int = 20_000,
) -> PCNResult:
    """Preconditioned Crank-Nicolson chains targeting exp(-Phi) d(gaussian),
    advanced in lockstep, one sample per chain.

    potential: 'quartic' (Phi = -renormalized_potential) or 'wick' (Phi =
    wick_action).  The proposal u' = sqrt(1-beta^2) u + beta w, with w a
    fresh free-field draw and 0 < beta <= 1, is reversible for the Gaussian,
    so the acceptance ratio involves only the action difference.  Every
    returned field is the endpoint of its own chain, so the samples are
    independent, unlike thinned states of one slowly mixing chain.  A step
    draws into fixed buffers, forms the proposal in place and evaluates all
    chains' actions by one moment kernel call on one to_grid transform (two
    DFT products up to N = 16, batched FFTs above), allocating only its grid.
    """
    if potential == "wick":
        sigma = mode_variance_sum(lattice.n_cut)

        def phi(m2, m4, out):  # 0.5 * (m4 - 4 sigma m2 + 2 sigma^2)
            np.multiply(m2, 4.0 * sigma, out=out)
            np.subtract(m4, out, out=out)
            out += 2.0 * sigma**2
            out *= 0.5
    elif potential == "quartic":
        def phi(m2, m4, out):  # 0.25 * m4 + m2^2
            np.multiply(m4, 0.25, out=out)
            out += np.square(m2, out=m2)
    else:
        raise ValueError("potential must be 'quartic' or 'wick'")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"pCN step beta must satisfy 0 < beta <= 1, got {beta}")
    if n_chains < 1 or n_steps < 1:
        raise ValueError(f"pCN needs n_chains >= 1 and n_steps >= 1, "
                         f"got n_chains={n_chains}, n_steps={n_steps}")

    u, prop, w = (np.empty((n_chains, lattice.n_modes), np.complex128) for _ in range(3))
    # real factors act on the (re, im) pairs: the bits of the complex products
    # by (x + 0j) in u' = sq * u + beta * (g / (sqrt(2) <n>))
    u_, prop_, w_ = (a.view(np.float64) for a in (u, prop, w))
    normals = np.empty_like(u_)
    scale = np.repeat(1.0 / (np.sqrt(2.0) * lattice.brackets), 2)
    phi_u, phi_p, log_r, gap = (np.empty(n_chains) for _ in range(4))
    acc = np.empty(n_chains, bool)
    np.multiply(rng.standard_normal(out=normals), scale, out=u_)
    phi(*lattice._moments(u), phi_u)
    sq = np.sqrt(1.0 - beta**2)
    accepted = 0
    trace = np.empty(n_steps)
    for k in range(n_steps):
        np.multiply(rng.standard_normal(out=normals), scale, out=w_)
        w_ *= beta
        np.multiply(u_, sq, out=prop_)
        prop_ += w_
        phi(*lattice._moments(prop), phi_p)
        np.log(rng.random(out=log_r), out=log_r)
        np.less(log_r, np.subtract(phi_u, phi_p, out=gap), out=acc)
        np.copyto(u, prop, where=acc[:, None])
        np.copyto(phi_u, phi_p, where=acc)
        accepted += np.count_nonzero(acc)
        trace[k] = phi_u.sum() / n_chains
    fields = [FourierField(lattice, u[k].copy()) for k in range(n_chains)]
    return PCNResult(fields, accepted / (n_steps * n_chains), trace, beta, n_steps)


def check_exponential_moments(
    n_cuts: tuple = (4, 8, 16, 32),
    n_samples: int = 10_000,
    seed: int = 0,
) -> dict:
    """Monte Carlo check of the weight-convergence properties.

    Under the Gaussian measure: the L^4 norms of exp(Phi_N) are all <= 1
    (the potential is nonpositive), and the L^2 distances between
    consecutive weights exp(Phi_{2N}) - exp(Phi_N) decrease in N (Cauchy
    behaviour).  Returns the estimated moments and successive distances
    with standard errors.  Samples are drawn on the largest cutoff's
    lattice, 64 at a time from the same stream as one sample_gff call each.
    """
    n_cuts = tuple(sorted(n_cuts))
    rng = np.random.default_rng(seed)
    lat = ModeLattice(n_cuts[-1])
    # Phi_N reads only the modes <n> <= N, so it is taken on their own lattice
    subs = [ModeLattice(N) for N in n_cuts]
    index = [lat.index_of(sub.modes) for sub in subs]
    w = np.empty((len(n_cuts), n_samples))
    for start in range(0, n_samples, 64):
        # sample_gff's stream: each sample's real parts, then its imaginary
        g = rng.standard_normal((min(64, n_samples - start), 2, lat.n_modes))
        c = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0) / lat.brackets
        w[:, start:start + len(c)] = np.exp(
            [renormalized_potential(FourierField(sub, c[:, i]))
             for sub, i in zip(subs, index)])
    moments, mom_sq = np.mean(w**4.0, axis=1), np.mean(w**8.0, axis=1)
    d = (w[1:] - w[:-1]) ** 2
    diffs, diff_sq = np.mean(d, axis=1), np.mean(d**2, axis=1)
    return {
        "n_cuts": n_cuts,
        "p": 4.0,
        "lp_norms": moments ** 0.25,
        "lp_se": np.sqrt(np.maximum(mom_sq - moments**2, 0.0) / n_samples),
        "l2_diffs": np.sqrt(diffs),
        "l2_diff_se": np.sqrt(np.maximum(diff_sq - diffs**2, 0.0) / n_samples)
        / (2.0 * np.sqrt(np.maximum(diffs, 1e-300))),
        "n_samples": n_samples,
    }
