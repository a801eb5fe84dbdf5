"""Lattice counting sets and sparse interaction tensors.

Enumerates the solution set of a paired linear/quadratic constraint
system over lattice boxes, builds the sparse indicator tensor over dyadic
shells, and compares matricization operator norms (block decomposition
with certified iteration) with the analytic counting bounds.
"""

import numpy as np

from torus_phi4 import (CountQuery, build_tensor, count_set, fiber_norm_sup,
                        matricization_norm, tensor_norms)

q = CountQuery(signs=(1, -1, 1), d=np.array([3, -1]), alpha=7,
               centers=(np.array([0, 0]),) * 3, radii=(8, 8, 8))
print(f"constraint set size |S| = {count_set(q)} "
      f"(boxes of radius 8, pairing-excluded)")

t = build_tensor(shells=(2, 2, 1))
print(f"shell tensor (2,2,1): {t.n.shape[0]} nonzero entries")

for rows in (("n",), ("n1",), ("n", "n2"), ("n", "n1")):
    nm = matricization_norm(t, rows)
    print(f"  matricization norm rows={rows}: {nm:.4f}")

norms = tensor_norms(t)
n1, n2 = norms["norm1"], norms["norm2"]
sups = fiber_norm_sup(t)  # both fiber sups, one flattening per row group
f1, f2 = sups["norm1"], sups["norm2"]
nmax, nmed, nmin = 2, 2, 1
print(f"norm family 1: {n1:.3f}  vs bound scale Nmax*Nmed = {nmax*nmed}")
print(f"fiber family 1: {f1:.3f} vs scale Nmax^0.6 Nmed^0.5 = "
      f"{nmax**0.6*nmed**0.5:.3f}")
print(f"norm family 2: {n2:.3f}  vs bound scale Nmax*Nmin = {nmax*nmin}")
print(f"fiber family 2: {f2:.3f} vs scale Nmax^0.6 Nmin^0.5 = "
      f"{nmax**0.6*nmin**0.5:.3f}")
