import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torus_phi4.spectral import (bracket, ModeLattice, FourierField,
                                 project_leq, project_shell, sobolev_norm,
                                 sup_mode_norm, save_snapshot, load_snapshot)


def random_field(lattice, rng, decay=1.0):
    g = (rng.standard_normal(lattice.n_modes)
         + 1j * rng.standard_normal(lattice.n_modes)) / np.sqrt(2.0)
    return FourierField(lattice, g / lattice.brackets.astype(float) ** decay)


def test_bracket_values():
    assert bracket(np.array([0, 0])) == 1.0
    assert bracket(np.array([1, 0])) == np.sqrt(2.0)
    assert bracket(np.array([-2, 3])) == np.sqrt(14.0)


def test_lattice_structure():
    lat = ModeLattice(4)
    # every retained mode is inside the ball, every excluded neighbor outside
    assert np.all(1 + (lat.modes ** 2).sum(axis=1) <= 16 + 1e-9)
    assert lat.n_modes == len(lat.modes)
    # lexicographic and unique
    assert len(np.unique(lat.modes, axis=0)) == lat.n_modes
    # grid resolves quartic products exactly
    assert lat.M >= 4 * lat.n_max + 1


def test_index_lookup_roundtrip():
    lat = ModeLattice(5)
    for k in range(lat.n_modes):
        assert lat.index_of(lat.modes[k]) == k
    assert lat.index_of(np.array([100, 100])) == -1
    assert not lat.contains(np.array([100, 100]))


def test_transform_roundtrip_exact():
    lat = ModeLattice(6)
    rng = np.random.default_rng(0)
    fields = [random_field(lat, rng) for _ in range(3)]
    u = fields[0]
    back = FourierField.from_physical(lat, u.to_physical())
    assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-13
    # the batched core: a (B, K) stack maps row by row, and back
    stack = np.stack([f.coeffs for f in fields])
    grid = lat.to_grid(stack)
    assert grid.shape == (3, lat.M, lat.M)
    for row, f in zip(grid, fields):
        assert np.max(np.abs(row - f.to_physical())) < 1e-12
    assert np.max(np.abs(lat.from_grid(grid) - stack)) < 1e-13


def test_single_mode_physical_values():
    lat = ModeLattice(3)
    c = np.zeros(lat.n_modes, dtype=complex)
    k = lat.index_of(np.array([1, -2]))
    c[k] = 2.0 + 1.0j
    u = FourierField(lat, c)
    xx, yy = lat.grid_points()
    expected = (2.0 + 1.0j) * np.exp(1j * (xx - 2 * yy))
    assert np.max(np.abs(u.to_physical() - expected)) < 1e-12


def test_parseval_grid_mean():
    lat = ModeLattice(5)
    rng = np.random.default_rng(1)
    u = random_field(lat, rng)
    grid_mean = np.mean(np.abs(u.to_physical()) ** 2)
    assert abs(grid_mean - np.sum(np.abs(u.coeffs) ** 2)) < 1e-12


def test_projections():
    lat = ModeLattice(8)
    rng = np.random.default_rng(2)
    u = random_field(lat, rng)
    low = project_leq(u, 4)
    keep = lat.brackets <= 4 + 1e-12
    assert np.all(low.coeffs[~keep] == 0)
    assert np.allclose(low.coeffs[keep], u.coeffs[keep])
    # dyadic shells [1,2), [2,4), [4,8) partition the retained ball
    # (every bracket lies in [1, 8) for this lattice)
    total = np.zeros_like(u.coeffs)
    for N in (1, 2, 4):
        total = total + project_shell(u, N).coeffs
    assert np.max(np.abs(total - u.coeffs)) < 1e-14


def test_sobolev_and_sup_norms():
    lat = ModeLattice(4)
    c = np.zeros(lat.n_modes, dtype=complex)
    c[lat.index_of(np.array([2, 1]))] = 3.0
    u = FourierField(lat, c)
    assert abs(sobolev_norm(u, 1.0) - 3.0 * np.sqrt(6.0)) < 1e-12
    assert abs(sup_mode_norm(u, 0.5) - 3.0 * 6.0 ** 0.25) < 1e-12


def test_snapshot_roundtrip_exact(tmp_path):
    lat = ModeLattice(4)
    rng = np.random.default_rng(3)
    u = random_field(lat, rng)
    path = tmp_path / "field.json"
    save_snapshot(u, path, metadata={"tag": "unit"})
    v, meta = load_snapshot(path)
    assert meta == {"tag": "unit"}
    assert np.array_equal(v.coeffs, u.coeffs)
    assert np.array_equal(v.lattice.modes, lat.modes)
    # file is valid JSON with explicit mode list
    blob = json.loads(path.read_text())
    assert "modes" in blob and "re" in blob and "im" in blob


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
def test_property_parseval(n_cut, seed):
    lat = ModeLattice(n_cut)
    rng = np.random.default_rng(seed)
    u = random_field(lat, rng)
    assert np.isclose(np.mean(np.abs(u.to_physical()) ** 2),
                      np.sum(np.abs(u.coeffs) ** 2), rtol=1e-10, atol=1e-12)
