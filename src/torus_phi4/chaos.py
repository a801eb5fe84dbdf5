"""Discrete Wiener-Ito calculus over the mode-time-family index set.

The Gaussian white noise underlying both the random initial data and
the driving noise is indexed by cells z = (mode, time cell, family):
family +1 carries the dynamics Brownian motions on [0, T], family -1
carries the initial-data Brownian motions on [0, 1] (whose total
increments are the standard complex Gaussians g_n of the free field).

A multiple integral of order k is the off-diagonal sum

    I_k[f] = sum over pairwise distinct cells z_1..z_k of
             f(z_1,..,z_k) * dB(z_1)^{e_1} .. dB(z_k)^{e_k},

where e_j in {+1,-1} is a per-slot conjugation flag (complex conjugate
when -1).  With all flags +1 this satisfies the Ito isometry
E[I_k[f] conj(I_k[g])] = k! <Sym f, Sym g> up to the O(h) diagonal
refinement error, and members of different orders are orthogonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .noise import NoisePath
from .spectral import FourierField, ModeLattice

__all__ = [
    "CellGrid",
    "ChaosKernel",
    "multi_integral",
    "kernel_inner",
    "symmetrize",
    "cubic_via_chaos",
    "hypercontractivity_ratio",
]


class CellGrid:
    """Flat enumeration of noise cells (mode, time cell, family).

    Family +1 cells come from a dynamics path on [0, T] (n_dyn steps),
    family -1 cells from a data path on [0, 1] (n_data steps).  The cell
    measure is the time-step length; modes and families carry counting
    measure.
    """

    def __init__(self, lattice: ModeLattice, n_dyn: int, horizon: float, n_data: int = 1):
        self.lattice = lattice
        self.n_dyn = n_dyn
        self.horizon = horizon
        self.n_data = n_data
        nm = lattice.n_modes
        self.n_cells = nm * (n_dyn + n_data)
        fam, mode, time_left, weight = [], [], [], []
        h_dyn = horizon / n_dyn
        for j in range(n_dyn):
            fam.append(np.full(nm, 1))
            mode.append(np.arange(nm))
            time_left.append(np.full(nm, j * h_dyn))
            weight.append(np.full(nm, h_dyn))
        h_dat = 1.0 / n_data
        for j in range(n_data):
            fam.append(np.full(nm, -1))
            mode.append(np.arange(nm))
            time_left.append(np.full(nm, j * h_dat))
            weight.append(np.full(nm, h_dat))
        self.family = np.concatenate(fam)
        self.mode = np.concatenate(mode)
        self.time_left = np.concatenate(time_left)
        self.weight = np.concatenate(weight)

    def increments(self, dyn_path: NoisePath, data_path: NoisePath) -> np.ndarray:
        """Flatten the two paths' increments into the cell order."""
        if dyn_path.n_steps != self.n_dyn or data_path.n_steps != self.n_data:
            raise ValueError("path step counts do not match the cell grid")
        return np.concatenate(
            [dyn_path.increments.reshape(-1), data_path.increments.reshape(-1)]
        )


@dataclass
class ChaosKernel:
    """Order-k kernel table on a CellGrid, with per-slot conjugation flags."""

    grid: CellGrid
    values: np.ndarray  # shape (n_cells,) * k
    conj_pattern: tuple = None

    def __post_init__(self):
        self.order = self.values.ndim
        if self.conj_pattern is None:
            self.conj_pattern = (1,) * self.order
        if len(self.conj_pattern) != self.order:
            raise ValueError("conjugation pattern length must equal the order")


def _slot_increments(kernel: ChaosKernel, dB: np.ndarray) -> list:
    return [dB if e == 1 else np.conj(dB) for e in kernel.conj_pattern]


def multi_integral(kernel: ChaosKernel, dB: np.ndarray) -> complex:
    """Off-diagonal contraction of the kernel against noise increments (k <= 3)."""
    F = kernel.values
    k = kernel.order
    W = _slot_increments(kernel, dB)
    if k == 1:
        return complex(np.sum(F * W[0]))
    if k == 2:
        full = np.einsum("ij,i,j->", F, W[0], W[1])
        diag = np.sum(np.diagonal(F) * W[0] * W[1])
        return complex(full - diag)
    if k == 3:
        full = np.einsum("ijk,i,j,k->", F, W[0], W[1], W[2])
        s12 = np.einsum("iik,i,i,k->", F, W[0], W[1], W[2])
        s13 = np.einsum("iji,i,j,i->", F, W[0], W[1], W[2])
        s23 = np.einsum("ijj,i,j,j->", F, W[0], W[1], W[2])
        s123 = np.einsum("iii,i,i,i->", F, W[0], W[1], W[2])
        return complex(full - s12 - s13 - s23 + 2.0 * s123)
    raise ValueError("multiple integrals implemented for order <= 3")


def kernel_inner(f: ChaosKernel, g: ChaosKernel) -> complex:
    """<f, g> = sum over multi-indices of f conj(g) times the cell measure."""
    if f.order != g.order:
        return 0.0 + 0.0j
    w = f.grid.weight
    prod = f.values * np.conj(g.values)
    for _ in range(f.order):
        prod = np.tensordot(prod, w, axes=([-1], [0]))
    return complex(prod)


def symmetrize(kernel: ChaosKernel) -> ChaosKernel:
    """Average over slot permutations (meaningful for a uniform conj pattern)."""
    k = kernel.order
    acc = np.zeros_like(kernel.values)
    for perm in itertools.permutations(range(k)):
        acc += np.transpose(kernel.values, perm)
    return ChaosKernel(kernel.grid, acc / math.factorial(k), kernel.conj_pattern)


# --- the linear and cubic stochastic objects as chaos expansions ---------


def _ansatz_cell_kernel(
    grid: CellGrid, gamma: float, t: float
) -> np.ndarray:
    """Kernel values f_t(z) whose order-1 integral is the linear ansatz.

    Data family: exp(-(gamma+i) t <n>^2)/<n> on all of [0,1]; dynamics
    family: sqrt(2 gamma) exp(-(gamma+i)(t - s) <n>^2) on cells with
    left endpoint s < t, evaluated at the left endpoint.
    """
    lat = grid.lattice
    q = lat.brackets[grid.mode] ** 2
    br = lat.brackets[grid.mode]
    vals = np.zeros(grid.n_cells, dtype=np.complex128)
    data = grid.family == -1
    vals[data] = np.exp(-(gamma + 1j) * t * q[data]) / br[data]
    dyn = (grid.family == 1) & (grid.time_left < t - 1e-12)
    vals[dyn] = np.sqrt(2.0 * gamma) * np.exp(
        -(gamma + 1j) * (t - grid.time_left[dyn]) * q[dyn]
    )
    return vals


def cubic_via_chaos(
    grid: CellGrid, dyn_path: NoisePath, data_path: NoisePath, gamma: float, t: float
) -> FourierField:
    """Order-3 integral representing the pairing-free cubic of the ansatz.

    Evaluates I_3 of the kernel 1{n = n1 - n2 + n3, n2 != n1, n2 != n3}
    f_t(z1) conj(f_t)(z2) f_t(z3) with conjugation flags (+1, -1, +1).
    Algebraically the off-diagonal cell sum equals the pairing-free
    trilinear form of the order-1 field minus the same-cell corrections
    on the n1 = n3 plane, which is how it is computed here (the dense
    k = 3 table is never formed); tests cross-check this identity
    against `multi_integral` on tiny grids.
    """
    from .nonlinearity import nonpairing

    lat = grid.lattice
    f = _ansatz_cell_kernel(grid, gamma, t)
    dB = grid.increments(dyn_path, data_path)
    contrib = f * dB
    a = np.zeros(lat.n_modes, dtype=np.complex128)
    np.add.at(a, grid.mode, contrib)
    d = np.zeros(lat.n_modes, dtype=np.complex128)
    np.add.at(d, grid.mode, contrib**2)

    af = FourierField(lat, a)
    base = nonpairing(af, af, af)

    # same-cell correction on the n1 = n3 pairing plane:
    # sum over n1 != n of D(n1) conj(A(2 n1 - n))
    corr = np.zeros(lat.n_modes, dtype=np.complex128)
    modes = lat.modes
    for i1 in range(lat.n_modes):
        n2 = 2 * modes[i1] - modes  # as a function of output mode n
        idx = lat.index_of(n2)
        valid = (idx >= 0) & (np.arange(lat.n_modes) != i1)
        corr[valid] += d[i1] * np.conj(a[idx[valid]])
    return FourierField(lat, base.coeffs - corr)


def hypercontractivity_ratio(samples: np.ndarray) -> np.ndarray:
    """||X||_4 / ||X||_2 along the first (sample) axis."""
    ap = np.mean(np.abs(samples) ** 4.0, axis=0) ** 0.25
    a2 = np.sqrt(np.mean(np.abs(samples) ** 2, axis=0))
    return ap / np.maximum(a2, 1e-300)
