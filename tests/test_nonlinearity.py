import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torus_phi4.spectral import ModeLattice, FourierField
from torus_phi4.nonlinearity import (mass, quartic_mean, cubic, resonant,
                                     nonpairing, renormalized_cubic,
                                     wick_cubic, conserved_energy,
                                     oracle_trilinear,
                                     nonpairing_batch)
from torus_phi4.gibbs import mode_variance_sum


def random_field(lattice, rng, decay=1.0, amp=1.0):
    g = (rng.standard_normal(lattice.n_modes)
         + 1j * rng.standard_normal(lattice.n_modes)) / np.sqrt(2.0)
    return FourierField(lattice, amp * g / lattice.brackets ** decay)


def test_mass_and_quartic_defs():
    lat = ModeLattice(3)
    rng = np.random.default_rng(0)
    u = random_field(lat, rng)
    # mass equals both the coefficient sum and the grid mean of |u|^2
    assert abs(mass(u) - np.sum(np.abs(u.coeffs) ** 2)) < 1e-13
    assert abs(mass(u) - np.mean(np.abs(u.to_physical()) ** 2)) < 1e-13
    # quartic grid mean is exact (dealiased) for retained-ball fields
    assert abs(quartic_mean(u)
               - np.mean(np.abs(u.to_physical()) ** 4)) < 1e-13


def test_transform_forms_match_oracle():
    rng = np.random.default_rng(1)
    for n_cut in (2, 4):
        lat = ModeLattice(n_cut)
        u1, u2, u3 = (random_field(lat, rng) for _ in range(3))
        fast = nonpairing(u1, u2, u3).coeffs
        slow = oracle_trilinear(u1, u2, u3, pairing_free=True).coeffs
        scale = np.max(np.abs(slow)) or 1.0
        assert np.max(np.abs(fast - slow)) / scale < 1e-12
        # both kernel branches on one field: the same array in all three
        # slots (two transforms) and equal copies (the general four)
        c = u1.coeffs
        slow_1 = oracle_trilinear(u1, u1, u1, pairing_free=True).coeffs
        scale_1 = np.max(np.abs(slow_1))
        for fast_1 in (nonpairing_batch(lat, c, c, c),
                       nonpairing_batch(lat, c, c.copy(), c.copy())):
            assert np.max(np.abs(fast_1 - slow_1)) / scale_1 < 1e-12
        # the doubly-paired diagonal, written out longhand
        fast_r = resonant(u1, u2, u3).coeffs
        slow_r = u1.coeffs * np.conj(u2.coeffs) * u3.coeffs
        assert np.max(np.abs(fast_r - slow_r)) / scale < 1e-12
        fast_c = cubic(u1).coeffs
        slow_c = oracle_trilinear(u1, u1, u1, pairing_free=False).coeffs
        assert np.max(np.abs(fast_c - slow_c)) / scale < 1e-12


def test_inclusion_exclusion_identity():
    # N(u) = full cubic - 2 * mass * u + R with R the double-pairing term;
    # directly: renormalized form satisfies N_pde = cubic - 2 mass u
    lat = ModeLattice(4)
    rng = np.random.default_rng(2)
    u = random_field(lat, rng)
    lhs = renormalized_cubic(u).coeffs
    rhs = cubic(u).coeffs - 2.0 * mass(u) * u.coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_nonpairing_minus_resonant_is_renormalized():
    lat = ModeLattice(4)
    rng = np.random.default_rng(3)
    u = random_field(lat, rng)
    lhs = (nonpairing(u, u, u).coeffs - resonant(u, u, u).coeffs)
    assert np.max(np.abs(lhs - renormalized_cubic(u).coeffs)) < 1e-12


def test_slot_symmetry_13():
    lat = ModeLattice(3)
    rng = np.random.default_rng(4)
    u1, u2, u3 = (random_field(lat, rng) for _ in range(3))
    a = nonpairing(u1, u2, u3).coeffs
    b = nonpairing(u3, u2, u1).coeffs
    assert np.max(np.abs(a - b)) < 1e-13


def test_gradient_antisymmetry():
    # the renormalized cubic is a (real) gradient: <N(u), u> is real
    lat = ModeLattice(6)
    rng = np.random.default_rng(5)
    u = random_field(lat, rng)
    ip = np.vdot(u.coeffs, renormalized_cubic(u).coeffs)
    assert abs(ip.imag) < 1e-12 * max(abs(ip.real), 1.0)


def test_energy_consistency_with_gradient():
    # H(u) = sum <n>^2 |u|^2 + 1/2 avg|u|^4 - mass^2 and its variation is
    # the linear part plus the renormalized cubic: check with a finite
    # difference along a random direction
    lat = ModeLattice(3)
    rng = np.random.default_rng(6)
    u = random_field(lat, rng)
    v = random_field(lat, rng)
    eps = 1e-6
    up = FourierField(lat, u.coeffs + eps * v.coeffs)
    um = FourierField(lat, u.coeffs - eps * v.coeffs)
    fd = (conserved_energy(up) - conserved_energy(um)) / (2 * eps)
    grad = lat.brackets ** 2 * u.coeffs + renormalized_cubic(u).coeffs
    analytic = 2.0 * np.real(np.vdot(grad, v.coeffs))
    assert abs(fd - analytic) < 1e-5 * max(abs(analytic), 1.0)


def test_wick_vs_pde_renormalization():
    lat = ModeLattice(4)
    sigma = mode_variance_sum(4)
    rng = np.random.default_rng(7)
    u = random_field(lat, rng)
    lhs = wick_cubic(u, sigma).coeffs
    rhs = cubic(u).coeffs - 2.0 * sigma * u.coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_batch_matches_single():
    lat = ModeLattice(4)
    rng = np.random.default_rng(8)
    us = [random_field(lat, rng) for _ in range(3)]
    vs = [random_field(lat, rng) for _ in range(3)]
    batch = nonpairing_batch(lat,
                             np.stack([us[0].coeffs, vs[0].coeffs]),
                             np.stack([us[1].coeffs, vs[1].coeffs]),
                             np.stack([us[2].coeffs, vs[2].coeffs]))
    one = nonpairing(us[0], us[1], us[2]).coeffs
    two = nonpairing(vs[0], vs[1], vs[2]).coeffs
    assert np.max(np.abs(batch[0] - one)) < 1e-13
    assert np.max(np.abs(batch[1] - two)) < 1e-13


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_property_imaginary_pairing_vanishes(seed):
    lat = ModeLattice(4)
    rng = np.random.default_rng(seed)
    u = random_field(lat, rng)
    ip = np.vdot(u.coeffs, renormalized_cubic(u).coeffs)
    assert abs(ip.imag) < 1e-11 * max(abs(ip.real), 1.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_property_phase_invariance(seed):
    # all forms are equivariant under a global phase: N(e^{i a} u)
    # = e^{i a} N(u)
    lat = ModeLattice(3)
    rng = np.random.default_rng(seed)
    u = random_field(lat, rng)
    a = rng.uniform(0, 2 * np.pi)
    rot = FourierField(lat, np.exp(1j * a) * u.coeffs)
    lhs = renormalized_cubic(rot).coeffs
    rhs = np.exp(1j * a) * renormalized_cubic(u).coeffs
    assert np.max(np.abs(lhs - rhs)) < 1e-11
