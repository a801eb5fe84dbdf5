"""Propagators, stochastic flows, gauge transform, Duhamel, Picard."""

import json

import numpy as np
import pytest

from torus_phi4 import (
    DynamicsConfig,
    FourierField,
    MassBlowUpError,
    ModeLattice,
    NoisePath,
    Trajectory,
    apply_gauge,
    duhamel,
    evolve,
    extract_remainder,
    gauge_phase,
    linear_evolution,
    mass,
    mode_variance_sum,
    picard_remainder,
    propagator,
    sample_gff,
    sobolev_norm,
    stochastic_convolution,
)
from torus_phi4.flows import MASS_BLOWUP_LIMIT, TRAJECTORY_FORMAT


def _gff(n_cut, seed):
    return sample_gff(ModeLattice(n_cut), np.random.default_rng(seed))


def test_propagator_closed_form_and_semigroup():
    u = _gff(3, 0)
    q = u.lattice.brackets**2
    gamma, t = 0.4, 0.7
    out = propagator(u, gamma, t)
    np.testing.assert_allclose(
        out.coeffs, u.coeffs * np.exp(-(gamma * t + 1j * t) * q), atol=1e-14
    )
    # dissipation uses |t|, oscillation keeps the sign
    back = propagator(u, gamma, -t)
    np.testing.assert_allclose(
        back.coeffs, u.coeffs * np.exp(-(gamma * t - 1j * t) * q), atol=1e-14
    )
    two = propagator(propagator(u, gamma, 0.3), gamma, 0.4)
    np.testing.assert_allclose(two.coeffs, out.coeffs, atol=1e-14)
    # independent dissipative/oscillatory times
    mixed = propagator(u, gamma, t, t_prime=0.0)
    np.testing.assert_allclose(
        mixed.coeffs, u.coeffs * np.exp(-gamma * t * q), atol=1e-14
    )


def test_stochastic_convolution_variance():
    lat = ModeLattice(2)
    gamma, horizon, n_steps, n_mc = 0.7, 1.0, 40, 1500
    acc = np.zeros(lat.n_modes)
    for m in range(n_mc):
        path = NoisePath.generate(lat, horizon, n_steps, seed=1000 + m)
        acc += np.abs(stochastic_convolution(path, gamma).coeffs[-1]) ** 2
    acc /= n_mc
    q = lat.brackets**2
    target = -np.expm1(-2 * gamma * horizon * q) / q
    z = (acc - target) / (target / np.sqrt(n_mc))
    assert np.max(np.abs(z)) < 4.5


def test_linear_evolution_gamma_zero_is_free_propagation():
    lat = ModeLattice(3)
    phi = _gff(3, 2)
    path = NoisePath.generate(lat, 1.0, 50, seed=5)
    traj = linear_evolution(phi, path, gamma=0.0)
    for k in (10, 50):
        exact = propagator(phi, 0.0, path.times[k])
        np.testing.assert_allclose(traj.coeffs[k], exact.coeffs, atol=1e-12)


def test_evolve_without_nonlinearity_matches_linear():
    lat = ModeLattice(2)
    phi = _gff(2, 3)
    path = NoisePath.generate(lat, 0.5, 64, seed=8)
    cfg = DynamicsConfig(gamma=0.6, n_trunc=2, nonlinearity_on=False)
    traj = evolve(phi, path, cfg)
    lin = linear_evolution(phi, path, 0.6, 2)
    np.testing.assert_allclose(traj.coeffs, lin.coeffs, atol=1e-12)


def test_evolve_conserves_mass_at_gamma_zero():
    # small amplitude: the phase-rotation substep conserves |u(x)| exactly and
    # the only loss is re-projection of the generated high harmonics
    lat = ModeLattice(2)
    phi = _gff(2, 4)
    phi = FourierField(lat, 0.05 * phi.coeffs)
    cfg = DynamicsConfig(gamma=0.0, n_trunc=2, noise_on=False)
    path = NoisePath.generate(lat, 0.5, 500, seed=0)
    traj = evolve(phi, path, cfg)
    m = np.sum(np.abs(traj.coeffs) ** 2, axis=1)
    assert np.max(np.abs(m - m[0])) < 5e-9


def test_splitting_converges_at_least_first_order():
    # the phase-rotation substep runs the unprojected sub-flow and then
    # truncates, so the scheme is first order for the truncated system
    lat = ModeLattice(2)
    phi = _gff(2, 6)
    cfg = DynamicsConfig(gamma=0.0, n_trunc=2, noise_on=False)

    def final(n_steps):
        path = NoisePath.generate(lat, 0.5, n_steps, seed=0)
        return evolve(phi, path, cfg).coeffs[-1]

    ref = final(2048)
    errs = [np.linalg.norm(final(n) - ref) for n in (64, 128, 256)]
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 1.7 < r1 < 4.8
    assert 1.7 < r2 < 4.8


def test_gauge_intertwines_wick_and_dynamic_flows():
    lat = ModeLattice(2)
    phi = _gff(2, 7)
    path = NoisePath.generate(lat, 0.25, 4000, seed=0)
    dyn = evolve(phi, path, DynamicsConfig(0.0, 2, "dynamic", noise_on=False))
    wck = evolve(phi, path, DynamicsConfig(0.0, 2, "wick", noise_on=False))
    gauged = apply_gauge(wck, 2, weight=2.0)
    err = np.max(np.abs(gauged.coeffs - dyn.coeffs))
    assert err < 1e-6


def test_gauge_phase_linear_along_wick_flow():
    lat = ModeLattice(2)
    phi = _gff(2, 8)
    phi = FourierField(lat, 0.05 * phi.coeffs)
    path = NoisePath.generate(lat, 0.5, 1000, seed=0)
    wck = evolve(phi, path, DynamicsConfig(0.0, 2, "wick", noise_on=False))
    v = gauge_phase(wck, 2)
    dv = np.diff(v)
    assert np.max(np.abs(dv - dv[0])) < 1e-11
    # slope is (mass(phi) - sigma) since the wick flow conserves mass
    sigma = mode_variance_sum(2)
    assert dv[0] / wck.h == pytest.approx(mass(phi) - sigma, abs=1e-10)


def test_duhamel_exact_for_constant_forcing():
    lat = ModeLattice(3)
    gamma = 0.5
    times = np.linspace(0.0, 1.0, 33)
    f = _gff(3, 10).coeffs
    forcing = Trajectory(lat, times, np.tile(f, (33, 1)), gamma)
    out = duhamel(forcing)
    a = (gamma + 1j) * lat.brackets**2
    for k in (1, 16, 32):
        t = times[k]
        exact = f * (1.0 - np.exp(-t * a)) / a
        np.testing.assert_allclose(out.coeffs[k], exact, atol=1e-13)


def test_duhamel_second_order_for_smooth_forcing():
    lat = ModeLattice(2)
    gamma = 0.3
    f0 = _gff(2, 11).coeffs

    def run(n_steps):
        times = np.linspace(0.0, 1.0, n_steps + 1)
        coeffs = np.exp(-1.5 * times)[:, None] * f0
        return duhamel(Trajectory(lat, times, coeffs, gamma)).coeffs[-1]

    ref = run(4096)
    e1 = np.linalg.norm(run(32) - ref)
    e2 = np.linalg.norm(run(64) - ref)
    assert 3.3 < e1 / e2 < 4.7


def test_extract_remainder_starts_at_zero_and_subtracts():
    lat = ModeLattice(2)
    phi = _gff(2, 12)
    path = NoisePath.generate(lat, 0.25, 200, seed=2)
    cfg = DynamicsConfig(gamma=0.5, n_trunc=2)
    traj = evolve(phi, path, cfg)
    rem = extract_remainder(traj, phi, path, n_trunc=2)
    lin = linear_evolution(phi, path, 0.5, 2)
    np.testing.assert_allclose(rem.coeffs[0], 0.0, atol=1e-14)
    np.testing.assert_allclose(rem.coeffs + lin.coeffs, traj.coeffs, atol=1e-13)


def test_picard_converges_to_extracted_remainder():
    lat = ModeLattice(2)
    rng = np.random.default_rng(13)
    phi = sample_gff(lat, rng)
    gamma, horizon, n_steps = 0.5, 0.05, 2000
    path = NoisePath.generate(lat, horizon, n_steps, seed=13)
    traj = evolve(phi, path, DynamicsConfig(gamma, 2, "dynamic"))
    rem = extract_remainder(traj, phi, path, n_trunc=2)
    base = linear_evolution(phi, path, gamma, 2)
    pic = picard_remainder(base, n_trunc=2, gamma=gamma)
    assert pic.converged
    assert max(pic.contraction_ratios) < 1.0
    assert pic.residuals[-1] < pic.residuals[0]
    diff = np.sqrt((np.abs(pic.trajectory.coeffs - rem.coeffs) ** 2).sum(axis=1))
    assert diff.max() < 5e-3


def test_trajectory_save_load_roundtrip(tmp_path):
    lat = ModeLattice(2)
    phi = _gff(2, 14)
    phi = FourierField(lat, 0.1 * phi.coeffs)
    path = NoisePath.generate(lat, 0.25, 16, seed=3)
    traj = evolve(phi, path, DynamicsConfig(gamma=0.4, n_trunc=2))
    traj.save(str(tmp_path / "traj"))
    back = Trajectory.load(str(tmp_path / "traj"))
    np.testing.assert_allclose(back.coeffs, traj.coeffs, atol=0)
    np.testing.assert_allclose(back.times, traj.times, atol=0)
    assert back.gamma == traj.gamma
    assert back.lattice.n_modes == lat.n_modes


def _saved_trajectory(tmp_path):
    lat = ModeLattice(2)
    path = NoisePath.generate(lat, 0.25, 4, seed=3)
    traj = evolve(FourierField(lat, 0.1 * _gff(2, 14).coeffs), path,
                  DynamicsConfig(gamma=0.4, n_trunc=2))
    directory = tmp_path / "traj"
    traj.save(str(directory))
    return directory


@pytest.mark.parametrize("fmt", [None, "torus-phi4/trajectory-v0"])
def test_trajectory_load_rejects_missing_or_unknown_format(tmp_path, fmt):
    directory = _saved_trajectory(tmp_path)
    manifest = json.loads((directory / "manifest.json").read_text())
    assert manifest["format"] == TRAJECTORY_FORMAT
    if fmt is None:
        del manifest["format"]
    else:
        manifest["format"] = fmt
    (directory / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format"):
        Trajectory.load(str(directory))


def test_trajectory_load_rejects_shape_mismatch(tmp_path):
    directory = _saved_trajectory(tmp_path)
    coeffs = np.load(directory / "coeffs.npy")
    np.save(directory / "coeffs.npy", coeffs[:-1])  # one snapshot short
    with pytest.raises(ValueError, match="shape"):
        Trajectory.load(str(directory))
    np.save(directory / "coeffs.npy", coeffs[:, :-1])  # one mode short
    with pytest.raises(ValueError, match="shape"):
        Trajectory.load(str(directory))


def test_evolve_raises_on_blowup():
    lat = ModeLattice(2)
    big = FourierField(lat, 1e5 * np.ones(lat.n_modes, dtype=complex))
    path = NoisePath.generate(lat, 1.0, 10, seed=0)
    cfg = DynamicsConfig(gamma=1.0, n_trunc=2)
    with pytest.raises(RuntimeError) as info:
        evolve(big, path, cfg)
    assert isinstance(info.value, MassBlowUpError)
    assert 0 <= info.value.step < path.n_steps
    assert info.value.mass > MASS_BLOWUP_LIMIT
