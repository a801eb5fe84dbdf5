"""Cell grids, multiple integrals, chaos objects."""

import numpy as np
import pytest

from torus_phi4 import (
    CellGrid,
    ChaosKernel,
    ModeLattice,
    NoisePath,
    cubic_via_chaos,
    hypercontractivity_ratio,
    kernel_inner,
    multi_integral,
    symmetrize,
)


def _tiny_grid(n_cut=2, n_dyn=3):
    lat = ModeLattice(n_cut)
    return CellGrid(lat, n_dyn=n_dyn, horizon=1.0)


def test_cell_grid_layout():
    grid = _tiny_grid()
    nm = grid.lattice.n_modes
    assert grid.n_cells == nm * 4
    # total measure: horizon per mode for dynamics cells, 1 for data cells
    assert np.sum(grid.weight) == pytest.approx(nm * (1.0 + 1.0))
    assert set(np.unique(grid.family)) == {-1, 1}


def test_cell_grid_increments_shape_and_mismatch():
    grid = _tiny_grid()
    lat = grid.lattice
    dyn = NoisePath.generate(lat, 1.0, 3, seed=0)
    dat = NoisePath.generate(lat, 1.0, 1, seed=1)
    dB = grid.increments(dyn, dat)
    assert dB.shape == (grid.n_cells,)
    with pytest.raises(ValueError):
        grid.increments(dat, dat)


def _random_kernel(grid, rng, order):
    shape = (grid.n_cells,) * order
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ChaosKernel(grid, vals)


def test_first_order_product_formula_pathwise():
    grid = _tiny_grid(n_cut=1, n_dyn=4)
    lat = grid.lattice
    rng = np.random.default_rng(5)
    f = _random_kernel(grid, rng, 1)
    g = _random_kernel(grid, rng, 1)
    dyn = NoisePath.generate(lat, 1.0, 4, seed=2)
    dat = NoisePath.generate(lat, 1.0, 1, seed=3)
    dB = grid.increments(dyn, dat)
    i1f = multi_integral(f, dB)
    i1g = multi_integral(g, dB)
    # I1(f) I1(g) = I2(f (x) g) + sum_c f_c g_c dB_c^2
    lhs = i1f * i1g
    fg = ChaosKernel(grid, np.multiply.outer(f.values, g.values))
    rhs = multi_integral(fg, dB) + np.sum(f.values * g.values * dB**2)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
    # conjugated variant: I1(f) conj(I1(g)) pairs through |dB|^2
    lhs2 = i1f * np.conj(i1g)
    fg_bar = ChaosKernel(grid, np.multiply.outer(f.values, np.conj(g.values)), (1, -1))
    rhs2 = multi_integral(fg_bar, dB) + np.sum(
        f.values * np.conj(g.values) * np.abs(dB) ** 2
    )
    assert abs(lhs2 - rhs2) < 1e-12 * max(1.0, abs(lhs2))


def test_third_order_integral_matches_brute_force():
    grid = _tiny_grid(n_cut=1, n_dyn=3)
    lat = grid.lattice
    rng = np.random.default_rng(6)
    f = _random_kernel(grid, rng, 3)
    f.conj_pattern = (1, -1, 1)
    dyn = NoisePath.generate(lat, 1.0, 3, seed=4)
    dat = NoisePath.generate(lat, 1.0, 1, seed=5)
    dB = grid.increments(dyn, dat)
    w = [dB, np.conj(dB), dB]
    total = 0.0
    m = grid.n_cells
    for i in range(m):
        for j in range(m):
            for k in range(m):
                if i == j or j == k or i == k:
                    continue
                total += f.values[i, j, k] * w[0][i] * w[1][j] * w[2][k]
    assert abs(multi_integral(f, dB) - total) < 1e-12 * max(1.0, abs(total))


def test_second_order_isometry():
    grid = _tiny_grid(n_cut=1, n_dyn=3)
    lat = grid.lattice
    rng = np.random.default_rng(7)
    f = _random_kernel(grid, rng, 2)
    fs = symmetrize(f)
    n_mc = 4000
    vals = np.empty(n_mc, dtype=complex)
    for m in range(n_mc):
        dyn = NoisePath.generate(lat, 1.0, 3, seed=10_000 + m)
        dat = NoisePath.generate(lat, 1.0, 1, seed=60_000 + m)
        dB = grid.increments(dyn, dat)
        vals[m] = multi_integral(f, dB)
    second = np.abs(vals) ** 2
    # E|I2(f)|^2 = 2 <f~, f~> off the cell diagonal (the integral never
    # touches same-cell pairs)
    off = fs.values.copy()
    np.fill_diagonal(off, 0.0)
    target = 2.0 * np.real(
        kernel_inner(ChaosKernel(grid, off), ChaosKernel(grid, off))
    )
    se = second.std(ddof=1) / np.sqrt(n_mc)
    assert abs(second.mean() - target) < 4 * se


def test_symmetrize_idempotent_and_inner_conjugate_symmetry():
    grid = _tiny_grid(n_cut=1, n_dyn=2)
    rng = np.random.default_rng(8)
    f = _random_kernel(grid, rng, 2)
    g = _random_kernel(grid, rng, 2)
    fs = symmetrize(f)
    np.testing.assert_allclose(symmetrize(fs).values, fs.values, atol=1e-14)
    np.testing.assert_allclose(fs.values, fs.values.T, atol=1e-14)
    assert kernel_inner(f, g) == pytest.approx(np.conj(kernel_inner(g, f)), abs=1e-12)


def test_cubic_via_chaos_matches_dense_third_order_integral():
    # the fast evaluation never forms the k = 3 table; rebuild it densely
    # per output mode and compare
    from torus_phi4.chaos import _ansatz_cell_kernel

    lat = ModeLattice(2)
    grid = CellGrid(lat, n_dyn=2, horizon=0.5)
    gamma, t = 0.5, 0.5
    dyn = NoisePath.generate(lat, 0.5, 2, seed=11)
    dat = NoisePath.generate(lat, 1.0, 1, seed=12)
    fast = cubic_via_chaos(grid, dyn, dat, gamma, t)
    fvals = _ansatz_cell_kernel(grid, gamma, t)
    dB = grid.increments(dyn, dat)
    mode = grid.mode
    modes = lat.modes
    lhs = np.zeros(lat.n_modes, dtype=complex)
    mvec = modes[mode]  # (n_cells, 2)
    for n_idx in range(lat.n_modes):
        n = modes[n_idx]
        # dense kernel on the constraint n = m1 - m2 + m3, m2 != m1, m3
        ok_n = (
            mvec[:, None, None, :] - mvec[None, :, None, :] + mvec[None, None, :, :]
            == n
        ).all(axis=-1)
        neq12 = ~(mvec[:, None] == mvec[None, :]).all(axis=-1)
        table = (
            ok_n
            * neq12[:, :, None]
            * neq12.T[None, :, :]
            * (fvals[:, None, None] * np.conj(fvals)[None, :, None] * fvals[None, None, :])
        )
        kern = ChaosKernel(grid, table, (1, -1, 1))
        lhs[n_idx] = multi_integral(kern, dB)
    np.testing.assert_allclose(lhs, fast.coeffs, atol=1e-10)


def test_hypercontractivity_ratio_gaussian():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((200_000, 2))
    ratios = hypercontractivity_ratio(g)
    np.testing.assert_allclose(ratios, 3.0**0.25, rtol=0.02)
