"""Linear evolution, stochastic flows, gauge transform, Duhamel, Picard."""

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
    linear_distance,
    linear_evolution,
    lockstep,
    lockstep_increments,
    mass,
    mode_variance_sum,
    picard_remainder,
    sample_gff,
    sobolev_norm,
)
from torus_phi4.flows import (MASS_BLOWUP_LIMIT, _duhamel_steps, _duhamel_weights,
                              _ou_factors, _ou_steps)


def _gff(n_cut, seed):
    return sample_gff(ModeLattice(n_cut), np.random.default_rng(seed))


def test_stochastic_convolution_variance():
    lat = ModeLattice(2)
    gamma, horizon, n_steps, n_mc = 0.7, 1.0, 40, 1500
    acc = np.zeros(lat.n_modes)
    for m in range(n_mc):
        path = NoisePath.generate(lat, horizon, n_steps, seed=1000 + m)
        acc += np.abs(linear_evolution(FourierField(lat), path, gamma).coeffs[-1]) ** 2
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
        exact = phi.coeffs * np.exp(-1j * path.times[k] * lat.brackets**2)
        np.testing.assert_allclose(traj.coeffs[k], exact, atol=1e-12)


def test_evolve_without_nonlinearity_matches_linear():
    lat = ModeLattice(2)
    phi = _gff(2, 3)
    path = NoisePath.generate(lat, 0.5, 64, seed=8)
    cfg = DynamicsConfig(gamma=0.6, nonlinearity_on=False)
    traj = evolve(phi, path, cfg)
    lin = linear_evolution(phi, path, 0.6)
    np.testing.assert_allclose(traj.coeffs, lin.coeffs, atol=1e-12)


def test_evolve_conserves_mass_at_gamma_zero():
    # small amplitude: the phase-rotation substep conserves |u(x)| exactly and
    # the only loss is re-projection of the generated high harmonics
    lat = ModeLattice(2)
    phi = _gff(2, 4)
    phi = FourierField(lat, 0.05 * phi.coeffs)
    cfg = DynamicsConfig(gamma=0.0)
    path = NoisePath.generate(lat, 0.5, 500, seed=0)
    traj = evolve(phi, path, cfg)
    m = np.sum(np.abs(traj.coeffs) ** 2, axis=1)
    assert np.max(np.abs(m - m[0])) < 5e-9


def test_splitting_converges_at_least_first_order():
    # the phase-rotation substep runs the unprojected sub-flow and then
    # truncates, so the scheme is first order for the truncated system
    lat = ModeLattice(2)
    phi = _gff(2, 6)
    cfg = DynamicsConfig(gamma=0.0)

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
    dyn = evolve(phi, path, DynamicsConfig(0.0, "dynamic"))
    wck = evolve(phi, path, DynamicsConfig(0.0, "wick"))
    gauged = apply_gauge(wck)
    err = np.max(np.abs(gauged.coeffs - dyn.coeffs))
    assert err < 1e-6


def test_gauge_phase_linear_along_wick_flow():
    lat = ModeLattice(2)
    phi = _gff(2, 8)
    phi = FourierField(lat, 0.05 * phi.coeffs)
    path = NoisePath.generate(lat, 0.5, 1000, seed=0)
    wck = evolve(phi, path, DynamicsConfig(0.0, "wick"))
    v = gauge_phase(wck)
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


@pytest.mark.parametrize("n_cut", [1, 4])
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_step_generators_keep_the_bits_of_their_formulas(n_cut, gamma):
    # the Duhamel state is updated in place and the OU noise term is left out
    # at gamma = 0 (zero times the increment), yet both must keep the bits of
    # the out-of-place expressions, evaluated left to right, also on the
    # one-mode lattice, where numpy multiplies in place by another loop
    lat, h = ModeLattice(n_cut), 0.01
    rng = np.random.default_rng(17)
    shape = (25, lat.n_modes)
    forcing = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    decay = np.exp(-(gamma + 1j) * h * lat.brackets**2)
    w_left, w_right = _duhamel_weights(lat, gamma, h)
    out = np.zeros(lat.n_modes, dtype=np.complex128)
    for prev, f, got in zip(forcing, forcing[1:], _duhamel_steps(lat, gamma, h, forcing)):
        out = decay * out + w_left * prev + w_right * f
        assert np.array_equal(got, out)

    _, scale = _ou_factors(lat, gamma, h)
    c = forcing[0]
    for inc, got in zip(forcing[1:], _ou_steps(lat, gamma, h, forcing[0], forcing[1:])):
        c = decay * c + scale * inc
        assert np.array_equal(got, c)


def test_extract_remainder_starts_at_zero_and_subtracts():
    lat = ModeLattice(2)
    phi = _gff(2, 12)
    path = NoisePath.generate(lat, 0.25, 200, seed=2)
    cfg = DynamicsConfig(gamma=0.5)
    traj = evolve(phi, path, cfg)
    rem = extract_remainder(traj, phi, path)
    lin = linear_evolution(phi, path, 0.5)
    np.testing.assert_allclose(rem.coeffs[0], 0.0, atol=1e-14)
    np.testing.assert_allclose(rem.coeffs + lin.coeffs, traj.coeffs, atol=1e-13)


def test_picard_converges_to_extracted_remainder():
    lat = ModeLattice(2)
    rng = np.random.default_rng(13)
    phi = sample_gff(lat, rng)
    gamma, horizon, n_steps = 0.5, 0.05, 2000
    path = NoisePath.generate(lat, horizon, n_steps, seed=13)
    traj = evolve(phi, path, DynamicsConfig(gamma, "dynamic"))
    rem = extract_remainder(traj, phi, path)
    base = linear_evolution(phi, path, gamma)
    pic = picard_remainder(base)
    assert pic.converged
    assert max(pic.contraction_ratios) < 1.0
    assert pic.residuals[-1] < pic.residuals[0]
    diff = np.sqrt((np.abs(pic.trajectory.coeffs - rem.coeffs) ** 2).sum(axis=1))
    assert diff.max() < 5e-3


@pytest.mark.parametrize("gamma", [float("nan"), np.array([[0.5], [np.inf]])],
                         ids=["nan", "inf-row"])
def test_dynamics_config_rejects_a_non_finite_damping(gamma):
    # the config parser lets no non-finite number through, so the CLI tests
    # cannot reach this case; negative dampings and drifts are covered there
    with pytest.raises(ValueError, match="gamma must be finite"):
        DynamicsConfig(gamma=gamma)


def test_evolve_raises_on_blowup():
    lat = ModeLattice(2)
    big = FourierField(lat, 1e5 * np.ones(lat.n_modes, dtype=complex))
    path = NoisePath.generate(lat, 1.0, 10, seed=0)
    cfg = DynamicsConfig(gamma=1.0)
    with pytest.raises(RuntimeError) as info:
        evolve(big, path, cfg)
    assert isinstance(info.value, MassBlowUpError)
    assert 0 <= info.value.step < path.n_steps
    assert info.value.mass > MASS_BLOWUP_LIMIT
    assert info.value.member == 0


def _lockstep_run(lat, phi, seeds, gammas, n_steps, noise=1.0, **kw):
    """States of a (gamma, member) stack, shape (n_steps + 1, G, B, K), with
    the members' increments scaled by `noise`."""
    cfg = DynamicsConfig(gamma=np.asarray(gammas)[:, None], **kw)
    incs = (noise * inc for inc in lockstep_increments(lat, 0.2, n_steps, seeds))
    return np.stack(list(lockstep(FourierField(lat, phi), incs, 0.2 / n_steps, cfg)))


@pytest.mark.parametrize("renormalization", ["wick", "dynamic"])
@pytest.mark.parametrize("nonlinearity_on, noise_on",
                         [(True, True), (False, True), (True, False)])
def test_lockstep_rows_equal_one_row_evolve(renormalization, nonlinearity_on, noise_on):
    lat = ModeLattice(3)
    rng = np.random.default_rng(21)
    n_steps, seeds = 12, [3, 40, 41]
    phi = np.stack([0.5 * _gff(3, 30 + m).coeffs for m in range(len(seeds))])
    gammas = np.where(rng.random(5) < 0.4, 0.0, rng.uniform(0.05, 1.0, 5))
    gammas[:2] = (0.0, 0.3)  # both branches, whatever the draw
    kw = dict(renormalization=renormalization, nonlinearity_on=nonlinearity_on)
    noise = 1.0 if noise_on else 0.0  # no noise: every row has zero increments
    states = _lockstep_run(lat, phi, seeds, gammas, n_steps, noise, **kw)
    assert states.shape == (n_steps + 1, len(gammas), len(seeds), lat.n_modes)
    for m, sd in enumerate(seeds):
        path = NoisePath.generate(lat, 0.2, n_steps, seed=sd)
        path.increments = noise * path.increments
        for j, g in enumerate(gammas):
            traj = evolve(FourierField(lat, phi[m]), path,
                          DynamicsConfig(float(g), **kw))
            np.testing.assert_array_equal(states[:, j, m], traj.coeffs)


def test_lockstep_rows_equal_evolve_on_a_large_stack():
    # 24 undamped rows of 30 x 30 grid values pass the 256 KB at which
    # numpy starts reusing temporaries, so the batched elementwise work
    # must not depend on the stack's size
    lat = ModeLattice(8)
    seeds = list(range(24))
    phi = np.stack([_gff(8, 60 + m).coeffs for m in seeds])
    states = _lockstep_run(lat, phi, seeds, [0.0, 0.25], 3, renormalization="wick")
    for m, sd in enumerate(seeds):
        path = NoisePath.generate(lat, 0.2, 3, seed=sd)
        for j, g in enumerate((0.0, 0.25)):
            traj = evolve(FourierField(lat, phi[m]), path, DynamicsConfig(g, "wick"))
            np.testing.assert_array_equal(states[:, j, m], traj.coeffs)


def test_lockstep_first_state_does_not_alias_the_data():
    lat = ModeLattice(2)
    phi = FourierField(lat, _gff(2, 52).coeffs[None])
    first = next(lockstep(phi, [], 0.1, DynamicsConfig(gamma=0.5)))
    assert not np.shares_memory(first, phi.coeffs)
    np.testing.assert_array_equal(first, phi.coeffs)


def test_lockstep_names_the_blown_up_row():
    lat = ModeLattice(2)
    phi = np.stack([0.1 * _gff(2, 50).coeffs,
                    1e5 * np.ones(lat.n_modes, dtype=complex),
                    0.1 * _gff(2, 51).coeffs])
    cfg = DynamicsConfig(gamma=np.array([0.0, 1.0, 1.0]))
    incs = lockstep_increments(lat, 0.1, 10, [1, 2, 3])
    with pytest.raises(MassBlowUpError) as info:
        for _ in lockstep(FourierField(lat, phi), incs, 0.01, cfg):
            pass
    assert info.value.member == 1
    assert "in member 1" in str(info.value)
    assert 0 <= info.value.step < 10
    assert info.value.mass > MASS_BLOWUP_LIMIT
    # the other rows alone run to the end
    calm = FourierField(lat, phi[[0, 2]])
    cfg.gamma = np.array([0.0, 1.0])
    states = list(lockstep(calm, lockstep_increments(lat, 0.1, 10, [1, 3]), 0.01, cfg))
    assert len(states) == 11 and np.all(np.isfinite(states[-1]))


def test_linear_distance_matches_monte_carlo():
    # GFF data evolved linearly at gamma and at 0 from the same data and
    # path; the distance at T against its closed form
    lat = ModeLattice(4)
    horizon, s, n_mc = 1.0, -0.25, 800
    wt = lat.brackets ** (2.0 * s)
    for gamma, amp in ((0.5, 1.0), (0.0625, 1.0), (0.25, 0.5)):
        d2 = np.empty(n_mc)
        for i in range(n_mc):
            phi = FourierField(lat, amp * _gff(4, 10_000 + i).coeffs)
            path = NoisePath.generate(lat, horizon, 4, seed=20_000 + i)
            diff = (linear_evolution(phi, path, gamma).coeffs[-1]
                    - linear_evolution(phi, path, 0.0).coeffs[-1])
            d2[i] = np.sum(wt * np.abs(diff) ** 2)
        target = linear_distance(lat, gamma, horizon, s, amp) ** 2
        z = (d2.mean() - target) / (d2.std(ddof=1) / np.sqrt(n_mc))
        assert abs(z) < 4.5, (gamma, amp, d2.mean(), target)
    q = lat.brackets**2
    closed = np.sqrt(2.0 * np.sum(q ** (s - 1.0) * -np.expm1(-0.5 * horizon * q)))
    assert linear_distance(lat, 0.5, horizon, s) == pytest.approx(closed, rel=1e-14)
    assert linear_distance(lat, 0.0, horizon, s) == 0.0
