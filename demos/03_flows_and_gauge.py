"""Split-step integration of the damped-driven and dispersive flows.

Runs the stochastic flow at positive damping, the dispersive flow at zero
damping (checking its conserved quantities), and demonstrates the exact
gauge equivalence between the constant-subtraction and mass-subtraction
renormalizations of the dispersive flow.
"""

import numpy as np

from torus_phi4 import (DynamicsConfig, FourierField, ModeLattice, NoisePath,
                        apply_gauge, conserved_energy, evolve, mass,
                        sample_gff)

lat = ModeLattice(8)
rng = np.random.default_rng(3)
phi = FourierField(lat, 0.05 * sample_gff(lat, rng).coeffs)
path = NoisePath.generate(lat, 1.0, 1000, seed=4)

# damped-driven flow: mass fluctuates around its stationary level
traj = evolve(phi, path, DynamicsConfig(gamma=0.5, renormalization="wick"))
ms = (np.abs(traj.coeffs) ** 2).sum(axis=1)
print(f"damped-driven run: mass {ms[0]:.4f} -> {ms[-1]:.4f} "
      f"(noise-sustained)")

# dispersive flow (no damping, hence no noise): mass and the energy
# functional are conserved
disp = evolve(phi, path, DynamicsConfig(gamma=0.0, renormalization="dynamic"))
u0 = disp.snapshot(0)
m_drift = max(abs(mass(disp.snapshot(k)) - mass(u0))
              for k in range(0, disp.n_snapshots, 100))
h_drift = max(abs(conserved_energy(disp.snapshot(k)) - conserved_energy(u0))
              for k in range(0, disp.n_snapshots, 100))
print(f"dispersive run: mass drift {m_drift:.2e}, energy drift {h_drift:.2e}")

# gauge equivalence: the constant-subtraction flow, multiplied by the
# accumulated phase exp(2i integral (mass - sigma)), is the
# mass-subtraction flow
wck = evolve(phi, path, DynamicsConfig(gamma=0.0, renormalization="wick"))
gau = apply_gauge(wck)
sup = np.sqrt((np.abs(gau.coeffs - disp.coeffs) ** 2).sum(axis=1)).max()
print(f"gauge-intertwined distance sup_t ||.||_l2 = {sup:.2e}")
