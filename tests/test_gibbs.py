"""Free-field sampling, interaction potentials, and the pCN sampler."""

import numpy as np
import pytest
from scipy.integrate import quad

from torus_phi4 import (
    FourierField,
    ModeLattice,
    check_exponential_moments,
    mass,
    mode_variance_sum,
    quartic_mean,
    renormalized_potential,
    sample_gff,
    sample_gibbs_pcn_chains,
    sobolev_norm,
    wick_action,
    wick_potential,
)


def test_mode_variance_sum_closed_form():
    # n_cut = 1 retains only the zero mode with bracket 1
    assert mode_variance_sum(1) == pytest.approx(1.0, abs=1e-14)
    # n_cut = 2 retains |n|^2 <= 3: 1/1 + 4*(1/2) + 4*(1/3) = 13/3
    assert mode_variance_sum(2) == pytest.approx(13.0 / 3.0, abs=1e-13)


def test_gff_mode_variances():
    lat = ModeLattice(3)
    rng = np.random.default_rng(5)
    n_mc = 4000
    acc = np.zeros(lat.n_modes)
    for _ in range(n_mc):
        acc += np.abs(sample_gff(lat, rng).coeffs) ** 2
    acc /= n_mc
    target = lat.brackets**-2.0
    # |u_hat|^2 is exponential with mean <n>^-2, so sd = mean
    z = (acc - target) / (target / np.sqrt(n_mc))
    assert np.max(np.abs(z)) < 4.5


def test_gff_mean_square_is_variance_sum():
    lat = ModeLattice(4)
    rng = np.random.default_rng(9)
    n_mc = 2000
    tot = np.mean(
        [sobolev_norm(sample_gff(lat, rng), 0.0) ** 2 for _ in range(n_mc)]
    )
    assert tot == pytest.approx(mode_variance_sum(4), rel=0.05)


def test_potentials_single_mode_closed_form():
    lat = ModeLattice(2)
    c = 0.8 - 0.3j
    u = FourierField(lat, np.zeros(lat.n_modes, dtype=complex))
    u.coeffs[lat.index_of((1, 0))] = c
    # single plane wave: |u(x)| is constant, so moments are powers of |c|^2
    r2 = abs(c) ** 2
    assert mass(u) == pytest.approx(r2, abs=1e-13)
    assert quartic_mean(u) == pytest.approx(r2**2, abs=1e-13)
    assert renormalized_potential(u) == pytest.approx(
        -0.25 * r2**2 - r2**2, abs=1e-13
    )
    sig = 13.0 / 3.0  # mode_variance_sum(2), the lattice's own Wick constant
    assert wick_potential(u) == pytest.approx(
        0.25 * (r2**2 - 4 * sig * r2 + 2 * sig**2), abs=1e-13
    )
    assert wick_action(u) == pytest.approx(2.0 * wick_potential(u), abs=1e-14)


def _radial_moment(phi_of_r2):
    """E|z|^2 under density ~ exp(-r^2 - phi(r^2)) r dr for complex z."""
    num = quad(lambda r: r**3 * np.exp(-r**2 - phi_of_r2(r**2)), 0, 12)[0]
    den = quad(lambda r: r * np.exp(-r**2 - phi_of_r2(r**2)), 0, 12)[0]
    return num / den


@pytest.mark.parametrize("potential", ["quartic", "wick"])
def test_pcn_single_mode_matches_quadrature(potential):
    # n_cut = 1: one complex mode, target density known up to a constant;
    # each sample is the endpoint of its own chain, so the samples are
    # independent and their standard error is the plain one
    lat = ModeLattice(1)
    rng = np.random.default_rng(17)
    res = sample_gibbs_pcn_chains(lat, potential, 6000, rng, beta=0.5, n_steps=200)
    assert 0.05 < res.acceptance_rate < 0.95
    samples = np.array([abs(f.coeffs[0]) ** 2 for f in res.fields])
    if potential == "quartic":
        oracle = _radial_moment(lambda m: 1.25 * m**2)
    else:
        sig = 1.0  # mode_variance_sum(1)
        oracle = _radial_moment(lambda m: 0.5 * (m**2 - 4 * sig * m + 2 * sig**2))
    se = samples.std(ddof=1) / np.sqrt(len(samples))
    assert abs(samples.mean() - oracle) < 6 * se


@pytest.mark.parametrize("potential", ["quartic", "wick"])
def test_pcn_chains_trace_is_mean_action(potential):
    # the lockstep sampler evaluates the action from batched grid moments;
    # its last trace entry must equal the scalar action averaged over the
    # chain endpoints it returns
    lat = ModeLattice(2)
    res = sample_gibbs_pcn_chains(lat, potential, 6, np.random.default_rng(4),
                                  beta=0.3, n_steps=300)
    assert len(res.fields) == 6 and res.n_steps == 300
    assert 0.0 < res.acceptance_rate < 1.0
    if potential == "wick":
        actions = [wick_action(f) for f in res.fields]
    else:
        actions = [-renormalized_potential(f) for f in res.fields]
    assert res.potential_trace[-1] == pytest.approx(np.mean(actions),
                                                    rel=1e-12, abs=1e-12)


def test_pcn_rejects_unknown_potential():
    lat = ModeLattice(1)
    with pytest.raises(ValueError):
        sample_gibbs_pcn_chains(lat, "cubic", 2, np.random.default_rng(0))


@pytest.mark.parametrize("kwargs", [
    {"beta": 1.5}, {"beta": 0.0}, {"beta": -0.1}, {"beta": float("nan")},
    {"n_steps": 0}, {"n_steps": -3}, {"n_chains": 0}])
def test_pcn_rejects_bad_step_sizes_and_counts(kwargs):
    args = {"n_chains": 2, "beta": 0.1, "n_steps": 5, **kwargs}
    with pytest.raises(ValueError):
        sample_gibbs_pcn_chains(ModeLattice(2), "wick", rng=np.random.default_rng(0), **args)


def test_pcn_accepts_the_independence_step():
    # beta = 1 proposes a fresh free field each step
    res = sample_gibbs_pcn_chains(ModeLattice(2), "quartic", 3, np.random.default_rng(0),
                                  beta=1.0, n_steps=20)
    assert 0.0 < res.acceptance_rate <= 1.0


def _reference_pcn_chains(lattice, potential, n_chains, rng, beta, n_steps):
    """The lockstep sweep as it stood before its buffers were preallocated:
    fresh arrays each step, |u| with a square root, and the to_grid transform."""
    if potential == "wick":
        sigma = mode_variance_sum(lattice.n_cut)

        def phi(m2, m4):
            return 0.5 * (m4 - 4.0 * sigma * m2 + 2.0 * sigma**2)
    else:
        def phi(m2, m4):
            return 0.25 * m4 + m2**2

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
    return u, accepted / (n_steps * n_chains), trace


@pytest.mark.parametrize("potential", ["quartic", "wick"])
@pytest.mark.parametrize("n_cut, n_chains, n_steps", [
    (1, 8, 400), (2, 8, 400), (4, 16, 400), (16.04, 3, 12)])
@pytest.mark.parametrize("seed", [3, 29])
def test_pcn_chains_equal_reference_sweep(potential, n_cut, n_chains, n_steps, seed):
    # same stream, same proposals, same accept decisions: the moments differ
    # from the reference only in rounding, far below any accept margin
    lat = ModeLattice(n_cut)
    ref_u, ref_rate, ref_trace = _reference_pcn_chains(
        lat, potential, n_chains, np.random.default_rng(seed), 0.3, n_steps)
    res = sample_gibbs_pcn_chains(lat, potential, n_chains, np.random.default_rng(seed),
                                  beta=0.3, n_steps=n_steps)
    assert res.acceptance_rate == ref_rate
    assert np.array_equal(np.stack([f.coeffs for f in res.fields]), ref_u)
    assert np.all(np.abs(res.potential_trace - ref_trace) <= 1e-12 * np.abs(ref_trace))
    # the kernel's per-chain action is the scalar action of each endpoint
    m2, m4 = lat._moments(ref_u)
    if potential == "wick":
        sigma = mode_variance_sum(n_cut)
        kernel = 0.5 * (m4 - 4.0 * sigma * m2 + 2.0 * sigma**2)
        scalar = [wick_action(f) for f in res.fields]
    else:
        kernel = 0.25 * m4 + m2**2
        scalar = [-renormalized_potential(f) for f in res.fields]
    np.testing.assert_allclose(kernel, scalar, rtol=1e-12)




def test_exponential_moments_bounded_and_cauchy():
    rep = check_exponential_moments(n_cuts=(2, 4, 8), n_samples=3000, seed=1)
    # the interaction is nonpositive, so every L^p norm is at most one
    assert np.all(rep["lp_norms"] <= 1.0 + 1e-12)
    assert np.all(rep["lp_norms"] > 0.0)
    # successive weight distances shrink as the cutoff doubles
    assert rep["l2_diffs"][1] < rep["l2_diffs"][0]
