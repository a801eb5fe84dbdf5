"""Fourier-side representation of complex fields on the 2-torus.

Fields live on the square torus of side 2*pi and are stored by their
Fourier coefficients on the finite mode set { n in Z^2 : <n> <= n_cut },
where <n> = sqrt(1 + |n|^2) is the Japanese bracket.  Spatial averages
are normalized so that the mean of |u|^2 over the torus equals the sum
of |u_hat(n)|^2 (Plancherel with the normalized measure).

The attached physical grid has M >= 4*n_max + 1 points per direction, so
grid products of up to four lattice fields are alias-free on the retained
modes.  All transforms are exact up to floating point roundoff.  Grids of
up to DFT_MATRIX_MAX_M points a side transform by two dense DFT products per
field, with no FFT call; larger ones by band-pruned FFTs, in which only the
2*n_max + 1 grid columns that can hold a retained mode enter the x-pass.

Each lattice owns the work arrays of its transforms (the frequency band or
block and the half-transformed stack) and of the pointwise steps of the cubic
kernels (a real grid for |u|^2, a complex one for a phase), one per name and
stack shape, made on first use and kept as long as the lattice.  Every pass
runs in place on one of them or on the grid being returned, so a transform
allocates only its result (from_grid also its first pass, since it leaves its
argument as it is).  Without them a call's temporaries at N = 64 outgrow
glibc's heap trim threshold (twice the largest block freed so far): what a
call frees goes back to the operating system, and the next call faults every
page of it in again.  A lattice is therefore not safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len

__all__ = [
    "bracket",
    "ModeLattice",
    "FourierField",
    "project_leq",
    "sobolev_norm",
]

DFT_MATRIX_MAX_M = 64  # largest grid side transformed by DFT matrices, not FFTs


def bracket(n) -> np.ndarray:
    """Japanese bracket <n> = sqrt(1 + |n|^2) for points of Z^2.

    `n` is an integer array whose last axis has length 2; a scalar array
    (or float) is returned with that axis contracted.
    """
    n = np.asarray(n, dtype=np.float64)
    return np.sqrt(1.0 + np.sum(n * n, axis=-1))


class ModeLattice:
    """The retained mode set { n in Z^2 : <n> <= n_cut } with its FFT grid.

    Modes are stored in lexicographic order of (n_x, n_y), which fixes a
    deterministic coefficient layout used by every consumer (samplers,
    integrators, serialization).
    """

    def __init__(self, n_cut: float):
        if n_cut < 1.0:
            raise ValueError("n_cut must be >= 1 (the origin has <0> = 1)")
        self.n_cut = float(n_cut)
        r2 = self.n_cut**2 - 1.0  # |n|^2 <= n_cut^2 - 1
        n_max = int(np.floor(np.sqrt(max(r2, 0.0))))
        coords = np.arange(-n_max, n_max + 1)
        gx, gy = np.meshgrid(coords, coords, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        keep = np.sum(pts * pts, axis=-1) <= r2 + 1e-9
        pts = pts[keep]
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        self.modes = np.ascontiguousarray(pts[order])
        self.n_modes = self.modes.shape[0]
        self.n_max = n_max
        self.brackets = bracket(self.modes)
        self.M = next_fast_len(4 * n_max + 1, real=False)
        # lookup table: coordinates -> index into self.modes, -1 if absent
        side = 2 * n_max + 1
        tbl = np.full((side, side), -1, dtype=np.int64)
        tbl[self.modes[:, 0] + n_max, self.modes[:, 1] + n_max] = np.arange(
            self.n_modes
        )
        self._lookup = tbl
        # Small grids transform by F[j, k] = e^{i k x_j} and conj(F)/M on a
        # (side, side) block, larger ones by FFTs on an (M, side) band; both hold
        # the frequencies -n_max..n_max in FFT order 0..n_max, -n_max..-1.
        self._dft, self._band_shape = None, (self.M, side)
        if self.M <= DFT_MATRIX_MAX_M:
            k = np.roll(coords, -n_max)
            f = np.exp(2j * np.pi / self.M * np.outer(np.arange(self.M), k))
            self._dft, self._band_shape = (f, f.conj() / self.M), (side, side)
        self._band_index = np.ravel_multi_index((self.modes % self._band_shape).T, self._band_shape)
        self._work = {}  # (name, shape) -> work array; see _workspace

    def index_of(self, n) -> np.ndarray:
        """Indices of modes `n` (shape (...,2)); -1 where not retained."""
        n = np.asarray(n, dtype=np.int64)
        ix = n[..., 0] + self.n_max
        iy = n[..., 1] + self.n_max
        side = 2 * self.n_max + 1
        inside = (ix >= 0) & (ix < side) & (iy >= 0) & (iy < side)
        out = np.full(n.shape[:-1], -1, dtype=np.int64)
        out[inside] = self._lookup[ix[inside], iy[inside]]
        return out

    def contains(self, n) -> np.ndarray:
        return self.index_of(n) >= 0

    def grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical grid coordinates x_j = 2*pi*j/M, as a meshgrid pair."""
        x = 2.0 * np.pi * np.arange(self.M) / self.M
        return np.meshgrid(x, x, indexing="ij")

    def _workspace(self, name: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        """The lattice's own work array `name` of `shape`, made on first use and
        handed out again, contents undefined, to every later call that asks."""
        buf = self._work.get((name, shape))
        if buf is None:
            buf = self._work[name, shape] = np.empty(shape, dtype)
        return buf

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values u(x_j) = sum_n u_hat(n) e^{i n.x_j} of c[..., n_modes].

        Leading axes are a batch; the result has shape c.shape[:-1] + (M, M)
        and is a new array, the only one the call allocates.
        Small grids: F B F^T on each field's frequency block B.  Large grids:
        the x-pass runs on the band columns only, the y-pass on every row.
        """
        lead, M, lo = coeffs.shape[:-1], self.M, self.n_max + 1
        band = self._workspace("band", lead + self._band_shape)
        band.fill(0.0)
        band.reshape(lead + (-1,))[..., self._band_index] = coeffs
        if self._dft is not None:
            f = self._dft[0]
            half = np.matmul(band, f.T, out=self._workspace("half", band.shape[:-1] + (M,)))
            return f @ half
        band = ifft2(band, axes=(-2,), norm="forward", overwrite_x=True)
        grid = np.empty(lead + (M, M), dtype=np.complex128)
        grid[..., :lo] = band[..., :lo]
        grid[..., lo:M - self.n_max] = 0.0
        grid[..., M - self.n_max:] = band[..., lo:]
        return ifft2(grid, axes=(-1,), norm="forward", overwrite_x=True)

    def from_grid(self, values: np.ndarray) -> np.ndarray:
        """Retained-mode coefficients of grid values w[..., M, M].

        Exact for band-limited data; the inverse of to_grid.  Small grids:
        conj(F)^T w conj(F) / M^2.  Large grids: the y-pass runs on every row,
        the x-pass on the band columns only.  `values` is left as it is.
        """
        return self._from_grid(values, overwrite=False)

    def _from_grid(self, values: np.ndarray, overwrite: bool) -> np.ndarray:
        """from_grid; with `overwrite` the y-pass may run in place on `values`."""
        lead, M, lo = values.shape[:-2], self.M, self.n_max + 1
        if self._dft is not None:
            f = self._dft[1]
            half = np.matmul(values, f, out=self._workspace("half", lead + (M, f.shape[1])))
            band = np.matmul(f.T, half, out=self._workspace("band", lead + self._band_shape))
        else:
            spec = fft2(values, axes=(-1,), norm="forward", overwrite_x=overwrite)
            band = self._workspace("band", lead + self._band_shape)
            band[..., :lo] = spec[..., :lo]
            band[..., lo:] = spec[..., M - self.n_max:]
            band = fft2(band, axes=(-2,), norm="forward", overwrite_x=True)
        return band.reshape(lead + (-1,))[..., self._band_index]

    def __eq__(self, other) -> bool:
        return isinstance(other, ModeLattice) and other.n_cut == self.n_cut

    def __repr__(self) -> str:
        return f"ModeLattice(n_cut={self.n_cut}, n_modes={self.n_modes}, M={self.M})"


@dataclass
class FourierField:
    """A complex field given by its coefficients on a ModeLattice.

    `coeffs` has shape (..., n_modes): leading axes, if any, index a stack
    of fields that the batched transforms and drifts treat row by row.
    """

    lattice: ModeLattice
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coeffs is None:
            self.coeffs = np.zeros(self.lattice.n_modes, dtype=np.complex128)
        else:
            self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
            if self.coeffs.shape[-1:] != (self.lattice.n_modes,):
                raise ValueError("coefficient array does not match lattice")

    def copy(self) -> "FourierField":
        return FourierField(self.lattice, self.coeffs.copy())

    def to_physical(self) -> np.ndarray:
        """Evaluate u(x_j) = sum_n u_hat(n) e^{i n.x_j} on the M x M grid."""
        return self.lattice.to_grid(self.coeffs)

    @classmethod
    def from_physical(cls, lattice: ModeLattice, values: np.ndarray) -> "FourierField":
        """Project grid values onto the retained modes (exact for band-limited data)."""
        return cls(lattice, lattice.from_grid(values))

    def __add__(self, other: "FourierField") -> "FourierField":
        return FourierField(self.lattice, self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierField") -> "FourierField":
        return FourierField(self.lattice, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "FourierField":
        return FourierField(self.lattice, self.coeffs * scalar)

    __rmul__ = __mul__


def project_leq(u: FourierField, n_cut: float) -> FourierField:
    """Sharp projection onto modes with <n> <= n_cut (same lattice layout)."""
    mask = u.lattice.brackets <= n_cut + 1e-12
    return FourierField(u.lattice, np.where(mask, u.coeffs, 0.0))


def sobolev_norm(u: FourierField, s: float) -> float:
    """H^s norm: sqrt(sum <n>^{2s} |u_hat(n)|^2)."""
    w = u.lattice.brackets ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2)))
