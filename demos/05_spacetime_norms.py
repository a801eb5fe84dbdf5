"""Windowed space-time spectra, modulation norms, and the Duhamel symbol.

Computes the twisted space-time transform of a trajectory (frequency
content measured relative to the free evolution), evaluates weighted
norms, and scans the oscillatory symbol of the windowed retarded integral
against its decay bound.
"""

import numpy as np

from torus_phi4 import (DynamicsConfig, FourierField, ModeLattice, NoisePath,
                        duhamel_symbol, evolve, sample_gff, sup_time_sobolev,
                        symbol_decay_sweep, twisted_transform, xsb_norm)

lat = ModeLattice(4)
rng = np.random.default_rng(11)
phi = FourierField(lat, 0.3 * sample_gff(lat, rng).coeffs)
path = NoisePath.generate(lat, 2.0, 800, seed=12)
traj = evolve(phi, path, DynamicsConfig(gamma=0.3, renormalization="wick"))

spec = twisted_transform(traj)
print(f"twisted spectrum: {spec.values.shape[0]} modes x "
      f"{spec.values.shape[1]} modulation frequencies")
for s, b in ((0.0, 0.0), (-0.25, 0.4), (0.4, 0.6)):
    print(f"  space-time norm at (s={s:+.2f}, b={b:.2f}): "
          f"{xsb_norm(spec, s, b):.4f}")
print(f"sup-in-time H^0.4 norm over the window core: "
      f"{sup_time_sobolev(traj, 0.4):.4f}")

# symbol of the windowed retarded integral at a few frequency pairs
for gamma, q, lam, mu in ((0.0, 1.0, 0.0, 0.0), (0.5, 6.0, 1.3, -0.7),
                          (1.0, 50.0, 12.0, 5.0)):
    val = duhamel_symbol(gamma, q, lam, mu)
    print(f"K(gamma={gamma}, q={q}, lam={lam}, mu={mu}) = "
          f"{val.real:+.5f}{val.imag:+.5f}i  |K| = {abs(val):.5f}")

rep = symbol_decay_sweep(n_points=2000, seed=0)
print(f"decay-bound sweep over 2000 random points: max fitted ratio "
      f"{rep['max_ratio']:.3f}, trend slope {rep['trend_slope']:+.3f}")
