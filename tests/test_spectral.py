import tracemalloc

import numpy as np
import numpy.fft
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from torus_phi4 import spectral
from torus_phi4.nonlinearity import nonpairing_batch
from torus_phi4.spectral import bracket, ModeLattice, FourierField, sobolev_norm


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


def test_transform_roundtrip_exact():
    lat = ModeLattice(6)
    rng = np.random.default_rng(0)
    fields = [random_field(lat, rng) for _ in range(3)]
    u = fields[0]
    back = lat.from_grid(u.to_physical())
    assert np.max(np.abs(back - u.coeffs)) < 1e-13
    # the batched core: a (B, K) stack maps row by row, and back
    stack = np.stack([f.coeffs for f in fields])
    grid = lat.to_grid(stack)
    assert grid.shape == (3, lat.M, lat.M)
    for row, f in zip(grid, fields):
        assert np.max(np.abs(row - f.to_physical())) < 1e-12
    assert np.max(np.abs(lat.from_grid(grid) - stack)) < 1e-13


def _edge_and_random_stack(lat, rng):
    """A (2, 4, K) stack: four random fields, then the four band-edge modes
    (+-n_max, 0) and (0, +-n_max) alone with unit coefficient."""
    c = np.zeros((2, 4, lat.n_modes), dtype=np.complex128)
    c[0] = rng.standard_normal((4, lat.n_modes)) + 1j * rng.standard_normal((4, lat.n_modes))
    m = lat.n_max
    for row, n in enumerate([(m, 0), (-m, 0), (0, m), (0, -m)]):
        c[1, row, lat.index_of(np.array(n))] = 1.0
    return c


# n_max = 0, 1, 1, 3, 7, 15, 16 and M = 1, 5, 5, 14, 30, 63, 66: odd and even
# grids; n_cut = 16 is the largest lattice transformed by DFT matrices and
# 16.04 the smallest transformed by FFTs
SWITCH_SIDES = (16, 16.04)


@pytest.mark.parametrize("n_cut", [1, 1.5, 2, 4, 8, *SWITCH_SIDES])
def test_to_grid_matches_explicit_sum(n_cut):
    lat = ModeLattice(n_cut)
    c = _edge_and_random_stack(lat, np.random.default_rng(int(4 * n_cut)))
    x = 2.0 * np.pi * np.arange(lat.M) / lat.M
    ex = np.exp(1j * np.outer(x, lat.modes[:, 0]))  # (M, K)
    ey = np.exp(1j * np.outer(x, lat.modes[:, 1]))
    oracle = np.einsum("...k,jk,lk->...jl", c, ex, ey)
    grid = lat.to_grid(c)
    assert grid.shape == (2, 4, lat.M, lat.M)
    scale = np.abs(c).sum(axis=-1)[..., None, None]
    assert np.all(np.abs(grid - oracle) <= 1e-13 * scale)
    assert np.max(np.abs(lat.from_grid(grid) - c)) < 1e-13


@pytest.mark.parametrize("n_cut", [1, 1.5, 2, 4, 8, *SWITCH_SIDES])
def test_from_grid_reads_full_transform_at_modes(n_cut):
    # a grid that is not band-limited: the pruned forward pass may drop
    # only columns that no retained mode reads
    lat = ModeLattice(n_cut)
    rng = np.random.default_rng(int(4 * n_cut) + 1)
    w = rng.standard_normal((2, 3, lat.M, lat.M)) + 1j * rng.standard_normal((2, 3, lat.M, lat.M))
    full = numpy.fft.fft2(w) / lat.M**2
    oracle = full[..., lat.modes[:, 0] % lat.M, lat.modes[:, 1] % lat.M]
    assert np.max(np.abs(lat.from_grid(w) - oracle)) < 1e-13


def test_transforms_call_only_module_fft2_ifft2(monkeypatch):
    # perfbench/tracer.py times the transform core by replacing the module
    # globals spectral.fft2 and spectral.ifft2; on the FFT side of the kernel
    # switch every pass must go through them
    def forbidden(*args, **kwargs):
        raise AssertionError("transform core called an FFT entry point other "
                             "than spectral.fft2/ifft2")

    for mod in (scipy.fft, numpy.fft):
        for fn in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
            monkeypatch.setattr(mod, fn, forbidden)
    lat = ModeLattice(SWITCH_SIDES[1])
    calls = []

    def counting(name, fn):
        def wrapped(x, *args, **kwargs):
            calls.append((name, kwargs.get("axes")))
            return fn(x, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(spectral, "fft2", counting("fft2", spectral.fft2))
    monkeypatch.setattr(spectral, "ifft2", counting("ifft2", spectral.ifft2))
    c = np.random.default_rng(7).standard_normal((3, lat.n_modes)) + 0j
    grid = lat.to_grid(c)
    assert calls == [("ifft2", (-2,)), ("ifft2", (-1,))]
    calls.clear()
    assert np.max(np.abs(lat.from_grid(grid) - c)) < 1e-13
    assert calls == [("fft2", (-1,)), ("fft2", (-2,))]

    # with both globals replaced by the identity, no transform is left:
    # to_grid is a bare scatter onto the grid and from_grid a bare gather
    def identity(x, *args, **kwargs):
        return np.array(x, copy=True)

    monkeypatch.setattr(spectral, "fft2", identity)
    monkeypatch.setattr(spectral, "ifft2", identity)
    ix, iy = lat.modes[:, 0] % lat.M, lat.modes[:, 1] % lat.M
    spread = np.zeros((3, lat.M, lat.M), dtype=np.complex128)
    spread[:, ix, iy] = c
    assert np.array_equal(lat.to_grid(c), spread)
    assert np.array_equal(lat.from_grid(grid), grid[:, ix, iy])

    # below the switch the DFT matrices do the work: no FFT entry point is reached
    monkeypatch.setattr(spectral, "fft2", forbidden)
    monkeypatch.setattr(spectral, "ifft2", forbidden)
    small = ModeLattice(SWITCH_SIDES[0])
    assert small.M <= spectral.DFT_MATRIX_MAX_M < lat.M and lat.n_max == small.n_max + 1
    c = np.random.default_rng(8).standard_normal((3, small.n_modes)) + 0j
    assert np.max(np.abs(small.from_grid(small.to_grid(c)) - c)) < 1e-13


def test_single_mode_physical_values():
    lat = ModeLattice(3)
    c = np.zeros(lat.n_modes, dtype=complex)
    k = lat.index_of(np.array([1, -2]))
    c[k] = 2.0 + 1.0j
    u = FourierField(lat, c)
    x = 2.0 * np.pi * np.arange(lat.M) / lat.M  # grid points x_j = 2 pi j / M
    xx, yy = np.meshgrid(x, x, indexing="ij")
    expected = (2.0 + 1.0j) * np.exp(1j * (xx - 2 * yy))
    assert np.max(np.abs(u.to_physical() - expected)) < 1e-12


def test_parseval_grid_mean():
    lat = ModeLattice(5)
    rng = np.random.default_rng(1)
    u = random_field(lat, rng)
    grid_mean = np.mean(np.abs(u.to_physical()) ** 2)
    assert abs(grid_mean - np.sum(np.abs(u.coeffs) ** 2)) < 1e-12


def test_sobolev_and_sup_norms():
    lat = ModeLattice(4)
    c = np.zeros(lat.n_modes, dtype=complex)
    c[lat.index_of(np.array([2, 1]))] = 3.0
    u = FourierField(lat, c)
    assert abs(sobolev_norm(u, 1.0) - 3.0 * np.sqrt(6.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 31))
def test_property_parseval(n_cut, seed):
    lat = ModeLattice(n_cut)
    rng = np.random.default_rng(seed)
    u = random_field(lat, rng)
    assert np.isclose(np.mean(np.abs(u.to_physical()) ** 2),
                      np.sum(np.abs(u.coeffs) ** 2), rtol=1e-10, atol=1e-12)


def _transforms(lat, c, w):
    """Everything the lattice computes through its work arrays, for c[..., K]
    and w[..., M, M]: grid, coefficients and the same-field cubic."""
    return lat.to_grid(c), lat.from_grid(w), nonpairing_batch(lat, c, c, c)


@pytest.mark.parametrize("n_cut", [1, 2, 4, 8, *SWITCH_SIDES])
def test_every_row_of_a_stack_gets_its_bits_alone(n_cut):
    # the DFT kernel makes one BLAS call per row and pass, and the per-row
    # norms one dot product per row, so no row's bits depend on the stack
    lat = ModeLattice(n_cut)
    rng = np.random.default_rng(int(4 * n_cut) + 5)
    for rows in (1, 2, 3, 7, 16, 33):
        c = rng.standard_normal((rows, lat.n_modes)) + 1j * rng.standard_normal((rows, lat.n_modes))
        w = rng.standard_normal((rows, lat.M, lat.M)) + 1j * rng.standard_normal((rows, lat.M, lat.M))
        stacked = [a.copy() for a in (*_transforms(lat, c, w), *lat._moments(c))]
        for i in range(rows):
            alone = (*_transforms(lat, c[i], w[i]), *lat._moments(c[i]))
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[i], b)


@pytest.mark.parametrize("n_cut", [8, SWITCH_SIDES[1]])
def test_workspaces_are_invisible(n_cut):
    # one lattice fed alternating stack shapes, interleaved with a second
    # lattice of the same cutoff and one of another, returns bit for bit
    # what a fresh lattice returns for each input alone
    rng = np.random.default_rng(11)
    probe = ModeLattice(n_cut)
    inputs = {}
    for rows in (1, 3, 18):
        c = rng.standard_normal((rows, probe.n_modes)) + 1j * rng.standard_normal((rows, probe.n_modes))
        w = rng.standard_normal((rows, probe.M, probe.M)) + 1j * rng.standard_normal((rows, probe.M, probe.M))
        inputs[rows] = (c, w)
    fresh = {rows: _transforms(ModeLattice(n_cut), c, w) for rows, (c, w) in inputs.items()}
    shared, twin, other = ModeLattice(n_cut), ModeLattice(n_cut), ModeLattice(n_cut / 2)
    c_other = rng.standard_normal(other.n_modes) + 0j
    for rows in (1, 3, 18, 1, 18, 3, 3, 1):
        for lat in (shared, twin):
            got = _transforms(lat, *inputs[rows])
            for a, b in zip(got, fresh[rows]):
                assert np.array_equal(a, b)
            nonpairing_batch(other, c_other, c_other, c_other)


@pytest.mark.parametrize("n_cut", [8, SWITCH_SIDES[1]])
def test_returned_arrays_and_arguments_are_not_touched(n_cut):
    lat = ModeLattice(n_cut)
    rng = np.random.default_rng(12)
    c = rng.standard_normal((3, lat.n_modes)) + 1j * rng.standard_normal((3, lat.n_modes))
    w = rng.standard_normal((3, lat.M, lat.M)) + 1j * rng.standard_normal((3, lat.M, lat.M))
    c_in, w_in = c.copy(), w.copy()
    grid, coeffs = lat.to_grid(c), lat.from_grid(w)
    assert np.array_equal(w, w_in) and np.array_equal(c, c_in)
    kept = grid.copy(), coeffs.copy()
    for _ in range(2):
        _transforms(lat, 2.0 * c, 0.5 * w)
        lat.from_grid(grid)
    assert np.array_equal(grid, kept[0]) and np.array_equal(coeffs, kept[1])
    assert np.array_equal(w, w_in) and np.array_equal(c, c_in)


@pytest.mark.parametrize("n_cut", [1, 2, 4, 8, *SWITCH_SIDES])
def test_moments_match_grid_means(n_cut):
    lat = ModeLattice(n_cut)
    c = _edge_and_random_stack(lat, np.random.default_rng(int(4 * n_cut) + 2))
    m2, m4 = lat._moments(c)
    assert m2.shape == m4.shape == (2, 4)
    grid = lat.to_grid(c)
    np.testing.assert_allclose(m2, np.sum(np.abs(c) ** 2, axis=-1), rtol=1e-13)
    np.testing.assert_allclose(m4, np.mean(np.abs(grid) ** 4, axis=(-2, -1)), rtol=1e-13)
    m2, m4 = m2.copy(), m4.copy()
    if lat.M > 1:  # numpy squares a one-point grid by its scalar path
        for i, j in np.ndindex(2, 4):
            assert lat._moments(c[i, j]) == (m2[i, j], m4[i, j])


@pytest.mark.parametrize("n_cut", [16, 32])
def test_moments_allocate_only_the_grid(n_cut):
    lat = ModeLattice(n_cut)
    c = np.random.default_rng(14).standard_normal((2, lat.n_modes)) + 0j
    assert _transient_grids(lambda: lat._moments(c), 2 * lat.M**2 * 16) <= 1.1


def _transient_grids(fn, grid_bytes):
    """tracemalloc peak of a warm call to fn, above what was held before it,
    in units of grid_bytes."""
    fn()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - held) / grid_bytes
    finally:
        tracemalloc.stop()


def test_transforms_hold_at_most_their_result():
    # above glibc's trim threshold, every byte a call frees at the top of the
    # heap goes back to the system and is faulted in again by the next call;
    # the cubic holds its one grid plus coefficient-sized temporaries, and
    # to_grid nothing but the grid it returns
    lat = ModeLattice(64)
    c = np.random.default_rng(13).standard_normal((2, lat.n_modes)) + 0j
    grid_bytes = c.shape[0] * lat.M**2 * 16
    assert _transient_grids(lambda: nonpairing_batch(lat, c, c, c), grid_bytes) <= 1.5
    assert _transient_grids(lambda: lat.to_grid(c), grid_bytes) <= 1.1
