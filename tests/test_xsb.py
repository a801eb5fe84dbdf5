"""Windows, twisted space-time spectra, Duhamel symbol, norm scans."""

import numpy as np
import pytest
from scipy.integrate import quad

from torus_phi4 import (
    ModeLattice,
    NoisePath,
    Trajectory,
    duhamel_symbol,
    l4_ratio_scan,
    linear_evolution,
    sample_gff,
    smooth_bump,
    sup_time_sobolev,
    symbol_decay_sweep,
    symbol_lipschitz_sweep,
    trajectory_window,
    twisted_transform,
    xsb_norm,
)
from torus_phi4.xsb import _reference_window


def test_trajectory_window_shape():
    t = np.linspace(0.0, 1.0, 401)
    chi = trajectory_window(t)
    assert chi[0] == 0.0 and chi[-1] == 0.0
    assert np.all((chi >= 0.0) & (chi <= 1.0))
    central = (t >= 0.25) & (t <= 0.75)
    np.testing.assert_allclose(chi[central], 1.0, atol=1e-12)
    # symmetric window
    np.testing.assert_allclose(chi, chi[::-1], atol=1e-12)


def test_smooth_bump_is_smooth_at_joins():
    # numerical derivatives stay bounded through the rolloff joints
    t = np.linspace(-0.1, 1.1, 20001)
    chi = smooth_bump(t, 0.0, 0.25, 0.75, 1.0)
    d2 = np.diff(chi, 2) / np.diff(t)[0] ** 2
    assert np.max(np.abs(d2)) < 1e3


def _random_traj(n_cut, seed, n_steps=128, horizon=1.0, gamma=0.3):
    lat = ModeLattice(n_cut)
    phi = sample_gff(lat, np.random.default_rng(seed))
    path = NoisePath.generate(lat, horizon, n_steps, seed=seed)
    return linear_evolution(phi, path, gamma)


def test_twisted_transform_plancherel():
    traj = _random_traj(2, 0)
    spec = twisted_transform(traj)
    lhs = spec.weighted_sq(0.0, 0.0)
    # discrete Plancherel: dlam sum |F|^2 = (h/2pi) sum_k chi^2 |u(t_k)|^2
    chi = trajectory_window(traj.times)
    h = traj.h
    rhs = (h / (2.0 * np.pi)) * float(
        np.sum(chi[:, None] ** 2 * np.abs(traj.coeffs) ** 2)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_twisted_transform_concentrates_free_evolution():
    # u_hat(n, t) = c e^{-i t <n>^2} has twisted spectrum peaked at lam = 0
    lat = ModeLattice(2)
    times = np.linspace(0.0, 1.0, 129)
    q = lat.brackets**2
    c = np.arange(1, lat.n_modes + 1, dtype=complex)
    coeffs = c[None, :] * np.exp(-1j * times[:, None] * q[None, :])
    spec = twisted_transform(Trajectory(lat, times, coeffs, 0.0))
    peak = np.abs(spec.values[:, 3])
    assert spec.lambdas[np.argmax(peak)] == pytest.approx(0.0, abs=1e-12)
    # higher b weights barely change the norm for a concentrated spectrum
    r = xsb_norm(spec, 0.0, 0.5) / xsb_norm(spec, 0.0, 0.0)
    assert 1.0 <= r < 2.0


def test_sup_time_sobolev_matches_direct():
    traj = _random_traj(2, 1)
    val = sup_time_sobolev(traj, 0.5)
    chi = trajectory_window(traj.times)
    w = traj.lattice.brackets.astype(float)
    sq = (np.abs(traj.coeffs) ** 2 * w[None, :]).sum(axis=1)
    direct = np.sqrt(sq[chi >= 1.0 - 1e-12].max())
    assert val == pytest.approx(direct, rel=1e-13)


def test_sup_time_sobolev_rejects_a_trajectory_with_an_empty_window_core():
    # two snapshots sit at the window's two zeros, so no time is central
    traj = _random_traj(2, 1, n_steps=1)
    with pytest.raises(ValueError, match="no snapshot where its window is 1"):
        sup_time_sobolev(traj, 0.5)


def _symbol_quad_oracle(gamma, q, lam, mu):
    a = gamma * q
    w = a + 1j * mu

    def integrand(t):
        chi = _reference_window(np.array([t]))[0]
        num = np.exp(gamma * (t - abs(t)) * q + 1j * t * mu) - np.exp(-gamma * abs(t) * q)
        if abs(w) < 1e-12:
            core = t  # limit of num / w
        else:
            core = num / w
        return chi * np.exp(-1j * t * lam) * core

    re = quad(lambda t: integrand(t).real, -2, 2, limit=400)[0]
    im = quad(lambda t: integrand(t).imag, -2, 2, limit=400)[0]
    return re + 1j * im


@pytest.mark.parametrize(
    "gamma,q,lam,mu",
    [
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 5.0, 2.5, 0.0),
        (0.5, 6.0, 1.3, -0.7),
        (1.0, 2.0, -4.0, 3.0),
        (0.3, 10.0, 12.0, 5.0),
    ],
)
def test_duhamel_symbol_against_adaptive_quadrature(gamma, q, lam, mu):
    got = duhamel_symbol(gamma, q, lam, mu)
    want = _symbol_quad_oracle(gamma, q, lam, mu)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_duhamel_symbol_gamma_zero_golden():
    # at gamma = mu = 0 the integrand collapses to chi(t) t e^{-i t lam}
    for lam in (0.0, 1.0, 7.5):
        got = duhamel_symbol(0.0, 3.0, lam, 0.0)
        want = quad(
            lambda t: (_reference_window(np.array([t]))[0] * t * np.sin(lam * t)),
            -2,
            2,
            limit=400,
        )[0]
        # the real part vanishes by oddness; -i times the sine transform remains
        assert abs(got.real) < 1e-10
        assert got.imag == pytest.approx(-want, abs=1e-10)


def test_duhamel_symbol_large_dissipation_stable():
    val = duhamel_symbol(2.0, 260.0, 100.0, -50.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) < 1.0


def test_symbol_decay_sweep_small():
    rep = symbol_decay_sweep(n_points=400, seed=0)
    assert rep["max_ratio"] < 10.0
    assert abs(rep["trend_slope"]) < 0.2


def test_symbol_lipschitz_sweep_small():
    rep = symbol_lipschitz_sweep(n_points=200, seed=1)
    assert rep["max_ratio"] < 10.0


def test_l4_ratio_scan_small():
    rep = l4_ratio_scan(ball_sizes=(1, 2, 4), ensemble=3, seed=0)
    assert np.all(np.asarray(rep["ratio"]) > 0)
    assert np.isfinite(rep["growth_exponent"])
