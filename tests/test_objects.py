"""Stochastic object bundles and regularity scans."""

import csv

import numpy as np
import pytest

from torus_phi4 import (
    ModeLattice,
    NoisePath,
    build_bundle,
    mode_variance_sum,
    nonpairing,
    regularity_scan,
    sample_gff,
    write_scan_csv,
)
from torus_phi4.spectral import FourierField


def test_build_bundle_consistency():
    lat = ModeLattice(2)
    rng = np.random.default_rng(0)
    phi = sample_gff(lat, rng)
    path = NoisePath.generate(lat, 0.5, 32, seed=1)
    bundle = build_bundle(phi, path, gamma=0.5)
    assert bundle.linear.coeffs.shape == (33, lat.n_modes)
    # cubic snapshots are the pairing-free trilinear of the linear ones
    k = 16
    u = FourierField(lat, bundle.linear.coeffs[k].copy())
    np.testing.assert_allclose(
        bundle.cubic.coeffs[k], nonpairing(u, u, u).coeffs, atol=1e-12
    )
    # the integrated cubic starts at zero and stays finite
    np.testing.assert_allclose(bundle.integrated_cubic.coeffs[0], 0.0, atol=1e-14)
    assert np.all(np.isfinite(bundle.integrated_cubic.coeffs))


def test_regularity_scan_linear_object_oracle():
    # the linear ansatz is stationary: E||.||_{H^s}^2 = sum <n>^{2s-2}
    scan = regularity_scan(
        n_cuts=(2, 4), s=0.0, gamma=0.5, horizon=0.5, ensemble=48, seed=3
    )
    for i, N in enumerate((2, 4)):
        target = mode_variance_sum(N)
        got = scan["linear"]["mean_sq"][i]
        se = scan["linear"]["se"][i]
        assert abs(got - target) < 4.5 * se


def test_regularity_scan_structure_and_csv(tmp_path):
    scan = regularity_scan(
        n_cuts=(2, 4), s=0.4, gamma=0.0, horizon=0.25, ensemble=4, seed=0
    )
    for name in ("linear", "cubic", "integrated_cubic"):
        block = scan[name]
        assert block["mean_sq"].shape == (2,)
        assert np.all(block["mean_sq"] > 0)
        assert np.isfinite(block["slope"])
    out = tmp_path / "scan.csv"
    write_scan_csv(scan, str(out))
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 6
    assert {r["object"] for r in rows} == {"linear", "cubic", "integrated_cubic"}


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_regularity_scan_equals_bundle_time_averages(gamma):
    # the scan streams what build_bundle stores: from each member's data,
    # and at gamma > 0 from the normals its rng draws next, the time
    # averages of the three objects' squared H^s norms must agree
    n_cuts, s, horizon, ensemble, seed = (2, 4), 0.4, 0.25, 3, 7
    scan = regularity_scan(n_cuts=n_cuts, s=s, gamma=gamma, horizon=horizon,
                           ensemble=ensemble, seed=seed)
    for i, N in enumerate(n_cuts):
        lat = ModeLattice(N)
        n_steps = int(np.ceil(4.0 * horizon * N * N))
        w_s = lat.brackets ** (2.0 * s)
        norms = {"linear": [], "cubic": [], "integrated_cubic": []}
        for m in range(ensemble):
            rng = np.random.default_rng(np.random.SeedSequence([seed, N, m]))
            phi = sample_gff(lat, rng)
            # unused at gamma = 0, where the noise scale is zero
            z = rng.standard_normal((n_steps, lat.n_modes, 2))
            inc = np.sqrt(horizon / n_steps / 2.0) * (z[..., 0] + 1j * z[..., 1])
            bundle = build_bundle(phi, NoisePath(lat, horizon, inc, seed=0), gamma)
            for name in norms:
                traj = getattr(bundle, name).coeffs[1:]
                norms[name].append(np.mean(np.sum(w_s * np.abs(traj) ** 2, axis=1)))
        for name, vals in norms.items():
            np.testing.assert_allclose(scan[name]["mean_sq"][i], np.mean(vals),
                                       rtol=1e-12, atol=0.0, err_msg=name)
            np.testing.assert_allclose(scan[name]["se"][i],
                                       np.std(vals, ddof=1) / np.sqrt(ensemble),
                                       rtol=1e-9, atol=0.0, err_msg=name)
