"""Stochastic objects, regularity scans, and the Picard remainder solver.

Assembles the linear ansatz / cubic / integrated-cubic bundle along one
noise path, runs a small lattice-size regularity scan, and solves the
remainder fixed-point equation by Picard iteration, comparing against the
remainder extracted from a direct integration of the full flow.
"""

import numpy as np

from torus_phi4 import (DynamicsConfig, ModeLattice, NoisePath, build_bundle,
                        evolve, extract_remainder, linear_evolution,
                        picard_remainder, regularity_scan, sample_gff)

lat = ModeLattice(4)
rng = np.random.default_rng(21)
phi = sample_gff(lat, rng)
path = NoisePath.generate(lat, 0.5, 500, seed=22)

bundle = build_bundle(phi, path, gamma=0.5)
for name, traj in (("linear", bundle.linear), ("cubic", bundle.cubic),
                   ("integrated cubic", bundle.integrated_cubic)):
    final = np.sqrt(np.sum(np.abs(traj.coeffs[-1]) ** 2))
    print(f"{name:>17}: final l2 norm {final:.4f}")

scan = regularity_scan(n_cuts=(4, 8, 16), ensemble=16, horizon=0.25,
                       gamma=0.0, seed=0)
print("growth slopes of E||.||^2_{H^0.4} vs cutoff:")
for k in ("linear", "cubic", "integrated_cubic"):
    print(f"  {k:>17}: {scan[k]['slope']:+.3f}")

# Picard solver for the remainder equation on a short horizon
horizon, n_steps = 0.05, 4000
path_s = NoisePath.generate(lat, horizon, n_steps, seed=23)
traj = evolve(phi, path_s, DynamicsConfig(gamma=0.5, renormalization="dynamic"))
rem = extract_remainder(traj, phi, path_s)
base = linear_evolution(phi, path_s, 0.5)
pic = picard_remainder(base)
gap = np.sqrt((np.abs(pic.trajectory.coeffs - rem.coeffs) ** 2)
              .sum(axis=1)).max()
print(f"picard vs direct remainder: sup-t gap {gap:.2e}, "
      f"contraction {max(pic.contraction_ratios):.3f}, "
      f"converged={pic.converged}")
