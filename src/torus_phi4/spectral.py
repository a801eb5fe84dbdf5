"""Fourier-side representation of complex fields on the 2-torus.

Fields live on the square torus of side 2*pi and are stored by their
Fourier coefficients on the finite mode set { n in Z^2 : <n> <= n_cut },
where <n> = sqrt(1 + |n|^2) is the Japanese bracket.  Spatial averages
are normalized so that the mean of |u|^2 over the torus equals the sum
of |u_hat(n)|^2 (Plancherel with the normalized measure).

The attached physical grid has M >= 4*n_max + 1 points per direction, so
grid products of up to four lattice fields are alias-free on the retained
modes.  All transforms are exact up to floating point roundoff.  Grids of
up to DFT_MATRIX_MAX_M points a side transform with no FFT call, by two real
GEMMs per field on the float64 (re, im) view: the frequency block, its rows
the y-frequencies, times the real form [[Re A, Im A], [-Im A, Re A]] of the
DFT matrix A, a transposing copy, and the same product again.  The field
stack is a stacked matmul, one BLAS call per row and pass, so each row gets
the bits it gets alone; one GEMM over the stack would tie them to how the
BLAS tiles it.  Larger grids transform by band-pruned FFTs, in which only the
2*n_max + 1 grid columns that can hold a retained mode enter the x-pass.

Each lattice owns the work arrays of its transforms (the zero-padded
coefficients, the frequency band or block, the half-transformed stack and its
transpose), of the pointwise steps of the cubic kernels (a real grid for
|u|^2, a complex one for a phase) and of the moment kernel _moments (mass and
quartic mean per row, the pCN sampler's one transform a step), one per name
and stack shape, made on first use and kept as long as the lattice.  Every
pass runs in place on one of them or on the grid being returned, so a
transform allocates only its result (the FFT from_grid also its first pass,
since it leaves its argument as it is).
Without them a call's temporaries at N = 64 outgrow glibc's heap trim
threshold (twice the largest block freed so far): what a call frees goes back
to the operating system, and the next call faults every page of it in again.
A lattice is therefore not safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len

__all__ = [
    "bracket",
    "ModeLattice",
    "FourierField",
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


def _real_block(a: np.ndarray) -> np.ndarray:
    """[[Re A, Im A], [-Im A, Re A]] with rows and columns interleaved as (re, im)
    pairs: the float64 view of a complex row times it is the row times A."""
    p, q = a.shape
    r = np.empty((p, 2, q, 2))
    r[:, 0, :, 0] = r[:, 1, :, 1] = a.real
    r[:, 0, :, 1], r[:, 1, :, 0] = a.imag, -a.imag
    return r.reshape(2 * p, 2 * q)


def _sq_norms(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum |c|^2 over the last axis, of shape c.shape[:-1] + (1, 1): per row the
    dot product of its (re, im) pairs with itself, one BLAS call per row."""
    p = np.ascontiguousarray(c, np.complex128).view(np.float64)
    return np.matmul(p[..., None, :], p[..., :, None], out=out)


class ModeLattice:
    """The retained mode set { n in Z^2 : <n> <= n_cut } with its FFT grid.

    Modes are stored in lexicographic order of (n_x, n_y), which fixes a
    deterministic coefficient layout used by every consumer (samplers,
    integrators, reports).
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
        # Small grids transform a (side, side) block in (y, x) frequency order
        # by the real forms of F.T and conj(F)/M, F[j, k] = e^{i k x_j}; larger
        # ones by FFTs on an (M, side) band in (x, y) order.  Both hold the
        # frequencies -n_max..n_max in FFT order 0..n_max, -n_max..-1.
        self._dft, self._band_shape, block = None, (self.M, side), self.modes
        if self.M <= DFT_MATRIX_MAX_M:
            k = np.roll(coords, -n_max)
            f = np.exp(2j * np.pi / self.M * np.outer(np.arange(self.M), k))
            self._dft = _real_block(f.T), _real_block(f.conj() / self.M)
            self._band_shape, block = (side, side), self.modes[:, ::-1]
        self._band_index = np.ravel_multi_index((block % self._band_shape).T, self._band_shape)
        # band position -> mode index, or n_modes (to_grid's zero pad) where no mode sits
        self._band_gather = np.full(np.prod(self._band_shape), self.n_modes)
        self._band_gather[self._band_index] = np.arange(self.n_modes)
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
        # every band position takes its mode from c padded by one zero
        pad = self._workspace("pad", lead + (self.n_modes + 1,))
        pad[..., :-1] = coeffs
        pad[..., -1] = 0.0
        band = self._workspace("band", lead + self._band_shape)
        pad.take(self._band_gather, axis=-1, out=band.reshape(lead + (-1,)), mode="clip")
        if self._dft is not None:
            return self._real_passes(band, self._dft[0], np.empty(lead + (M, M), np.complex128))
        band = ifft2(band, axes=(-2,), norm="forward", overwrite_x=True)
        grid = np.empty(lead + (M, M), dtype=np.complex128)
        grid[..., :lo] = band[..., :lo]
        grid[..., lo:M - self.n_max] = 0.0
        grid[..., M - self.n_max:] = band[..., lo:]
        return ifft2(grid, axes=(-1,), norm="forward", overwrite_x=True)

    def _moments(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Mass sum |c|^2 and grid mean |u|^4 = |u^2|^2 of each row of c[..., K],
        as dot products of the (re, im) pairs with themselves: no square root.

        Both are lattice-owned arrays of the leading shape, overwritten by the
        next call and free for the caller to use as scratch until then; the
        call allocates only to_grid's result.
        """
        lead, M = coeffs.shape[:-1], self.M
        m2 = self._workspace("m2", lead + (1, 1), np.float64)
        m4 = self._workspace("m4", lead + (1, 1), np.float64)
        _sq_norms(coeffs, out=m2)
        grid = self.to_grid(coeffs)
        # out of place: numpy squares a short array in place by a loop whose
        # bits depend on where in the stack the row sits
        sq = np.multiply(grid, grid, out=self._workspace("grid", grid.shape))
        _sq_norms(sq.reshape(lead + (-1,)), out=m4)
        m4 /= M * M
        return m2.reshape(lead), m4.reshape(lead)

    def _real_passes(self, x: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out = (x A)^T A for each matrix of the complex stack x, `a` the real form
        of A: two stacked real GEMMs from the right with a transposing copy between
        (to_grid and from_grid share the two half-transformed work arrays)."""
        lead, p, q = x.shape[:-2], x.shape[-2], a.shape[1] // 2
        half = self._workspace("half", lead + (p, q))
        np.matmul(x.view(np.float64), a, out=half.view(np.float64))
        turned = self._workspace("half", lead + (q, p))  # half itself only if p = q = 1
        np.copyto(turned, half.swapaxes(-1, -2))
        np.matmul(turned.view(np.float64), a, out=out.view(np.float64))
        return out

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
            band = self._real_passes(np.ascontiguousarray(values, np.complex128), self._dft[1],
                                     self._workspace("band", lead + self._band_shape))
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


def sobolev_norm(u: FourierField, s: float) -> float:
    """H^s norm: sqrt(sum <n>^{2s} |u_hat(n)|^2)."""
    w = u.lattice.brackets ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2)))
