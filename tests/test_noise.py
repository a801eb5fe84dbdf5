"""Driving noise paths: statistics, reproducibility, and refinement."""

import numpy as np
import pytest

from torus_phi4 import ModeLattice, NoisePath, lockstep_increments, noise


def test_generate_shapes_and_grid():
    lat = ModeLattice(3)
    path = NoisePath.generate(lat, horizon=2.0, n_steps=8, seed=4)
    assert path.increments.shape == (8, lat.n_modes)
    assert path.h == pytest.approx(0.25)
    np.testing.assert_allclose(path.times, np.linspace(0, 2, 9))


def test_generate_reproducible():
    lat = ModeLattice(2)
    a = NoisePath.generate(lat, 1.0, 16, seed=11)
    b = NoisePath.generate(lat, 1.0, 16, seed=11)
    c = NoisePath.generate(lat, 1.0, 16, seed=12)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert np.any(a.increments != c.increments)


@pytest.mark.parametrize("entries", [27, 81, 189, 540, 2**17])
def test_lockstep_increments_equal_generated_paths(monkeypatch, entries):
    # blocks of 1, 3, 7, 20 and all 20 steps of three 9-mode paths: blocks
    # that divide the steps, that do not, and one that holds them all
    lat = ModeLattice(2)
    seeds = [5, 17, 2**31 + 3]
    monkeypatch.setattr(noise, "BLOCK_ENTRIES", entries)
    got = np.stack(list(lockstep_increments(lat, 0.5, 20, seeds)))
    want = np.stack([NoisePath.generate(lat, 0.5, 20, s).increments
                     for s in seeds], axis=1)
    assert got.shape == (20, len(seeds), lat.n_modes)
    np.testing.assert_array_equal(got, want)


def test_increment_statistics():
    lat = ModeLattice(4)
    path = NoisePath.generate(lat, 1.0, 512, seed=0)
    z = path.increments / np.sqrt(path.h)
    n = z.size
    # E|z|^2 = 1, E[z^2] = 0 (circular complex Gaussian)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 5 / np.sqrt(n)
    assert abs(np.mean(z**2)) < 5 / np.sqrt(n)
    assert abs(np.mean(z)) < 5 / np.sqrt(n)


def test_refine_is_consistent_with_coarse():
    lat = ModeLattice(2)
    coarse = NoisePath.generate(lat, 1.0, 8, seed=3)
    fine = coarse.refine()
    assert fine.n_steps == 16
    assert fine.level == coarse.level + 1
    # pairwise sums of fine increments reproduce the coarse path exactly
    np.testing.assert_allclose(
        fine.increments[0::2] + fine.increments[1::2],
        coarse.increments,
        atol=1e-15,
    )
    # totals are preserved too
    np.testing.assert_allclose(fine.increments.sum(axis=0),
                               coarse.increments.sum(axis=0), atol=1e-13)


def test_refine_midpoint_variance():
    lat = ModeLattice(1)
    coarse = NoisePath.generate(lat, 1.0, 4096, seed=7)
    fine = coarse.refine()
    # conditionally on the coarse increment c, the first half has mean c/2
    # and complex variance h/4
    resid = fine.increments[0::2] - 0.5 * coarse.increments
    var = np.mean(np.abs(resid) ** 2)
    assert var == pytest.approx(coarse.h / 4.0, rel=0.15)


def test_refined_to():
    lat = ModeLattice(1)
    path = NoisePath.generate(lat, 1.0, 4, seed=1)
    fine = path.refined_to(16)
    assert fine.n_steps == 16
    assert fine.h == pytest.approx(1.0 / 16)
    with pytest.raises(ValueError):
        path.refined_to(24)


def test_refinement_deterministic():
    lat = ModeLattice(1)
    a = NoisePath.generate(lat, 1.0, 4, seed=9).refine()
    b = NoisePath.generate(lat, 1.0, 4, seed=9).refine()
    np.testing.assert_array_equal(a.increments, b.increments)
