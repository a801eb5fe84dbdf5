"""Lattice point counting and the sparse convolution tensor.

The resonance phase of an interaction (n; n1, n2, n3) on the plane
n = n1 - n2 + n3 is the even integer

    kappa = <n>^2 - <n1>^2 + <n2>^2 - <n3>^2 = 2 <n2 - n1, n2 - n3>.

`count_set` counts pairing-free solutions of a linear + quadratic pair
of constraints inside translated boxes, the quantity controlled by the
counting estimate |S| <~ N2^{1+eps} N3 (N2, N3 the two smallest box
sizes).

`build_tensor` materializes the 0/1 tensor supported on dyadic-shell
interactions; its matricization norms (largest singular values of the
row-group/column-group flattenings) and the corresponding norms of its
resonance-level fibers are the quantities the tensor estimates bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .spectral import bracket

__all__ = [
    "resonance_phase",
    "CountQuery",
    "count_set",
    "SparseTensor",
    "build_tensor",
    "fiber",
    "matricization_norm",
    "tensor_norms",
    "fiber_norm_sup",
    "verify_tensor_bounds",
]

SUPPORT_GUARD = 10_000_000  # refuse shell sweeps beyond this many triples


def resonance_phase(n, n1, n2, n3) -> np.ndarray:
    """kappa = |n|^2 - |n1|^2 + |n2|^2 - |n3|^2 (the brackets' +1s cancel)."""
    sq = lambda v: np.sum(np.asarray(v) ** 2, axis=-1)
    return sq(n) - sq(n1) + sq(n2) - sq(n3)


@dataclass(frozen=True)
class CountQuery:
    """Constraints ii1*x + ii2*y + ii3*z = d, ii1<x>^2 + ii2<y>^2 + ii3<z>^2 = alpha
    with x, y, z ranging over boxes of half-sides r1, r2, r3 centered at
    a, b, c, excluding sign-opposite pairings (x = y with ii1 = -ii2, etc.).
    """

    signs: tuple  # (ii1, ii2, ii3), each +1 or -1
    d: tuple  # target of the linear constraint, a point of Z^2
    alpha: float  # target of the quadratic constraint
    centers: tuple  # ((ax,ay),(bx,by),(cx,cy))
    radii: tuple  # (r1, r2, r3)


def _box(center, radius) -> np.ndarray:
    cx, cy = center
    r = int(radius)
    xs = np.arange(cx - r, cx + r + 1)
    ys = np.arange(cy - r, cy + r + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def count_set(query: CountQuery) -> int:
    """Count solutions by enumerating the two smaller boxes.

    The box of x is eliminated through the linear constraint; y and z
    are enumerated (vectorized over z), so the cost is |box_y| * |box_z|.
    """
    i1, i2, i3 = query.signs
    a, b, c = query.centers
    r1, r2, r3 = query.radii
    ys = _box(b, r2)
    zs = _box(c, r3)
    d = np.asarray(query.d)
    bz = bracket(zs) ** 2
    count = 0
    for y in ys:
        x = i1 * (d - i2 * y - i3 * zs)  # solves the linear constraint
        inside = np.max(np.abs(x - np.asarray(a)), axis=1) <= r1
        if not np.any(inside):
            continue
        quad = i1 * bracket(x) ** 2 + i2 * bracket(y) ** 2 + i3 * bz
        ok = inside & (np.abs(quad - query.alpha) < 1e-9)
        if i1 == -i2:
            ok &= ~np.all(x == y, axis=1)
        if i2 == -i3:
            ok &= ~np.all(zs == y, axis=1)
        if i1 == -i3:
            ok &= ~np.all(x == zs, axis=1)
        count += int(np.count_nonzero(ok))
    return count


@dataclass
class SparseTensor:
    """0/1 tensor on interactions (n; n1, n2, n3), n = n1 - n2 + n3.

    Stored as the integer coordinate arrays of its support; `levels`
    holds the resonance phase of each support point.
    """

    n: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    n3: np.ndarray
    levels: np.ndarray

    @property
    def nnz(self) -> int:
        return self.n.shape[0]


def _shell(center, n_lo: float) -> np.ndarray:
    """Points with n_lo <= <n - center> < 2*n_lo."""
    hi = 2.0 * n_lo
    r = int(np.ceil(np.sqrt(hi * hi - 1.0)))
    pts = _box(tuple(center), r)
    br = bracket(pts - np.asarray(center))
    return pts[(br >= n_lo - 1e-12) & (br < hi - 1e-12)]


def build_tensor(
    shells: tuple,
    centers: tuple = ((0, 0), (0, 0), (0, 0)),
    n_cap: float | None = None,
) -> SparseTensor:
    """Support of the convolution tensor over dyadic shells.

    shells: (N1, N2, N3); slot j ranges over <n_j - center_j> in
    [N_j, 2 N_j).  Pairing exclusions n2 != n1 and n2 != n3 apply.
    n_cap optionally restricts the output mode to <n> <= n_cap.
    """
    s1 = _shell(centers[0], shells[0])
    s2 = _shell(centers[1], shells[1])
    s3 = _shell(centers[2], shells[2])
    if s1.shape[0] * s2.shape[0] * s3.shape[0] > SUPPORT_GUARD:
        raise ValueError("shell volumes exceed the support guard")
    out = []
    for p1 in s1:
        # vectorize over (n2, n3)
        n = p1[None, None, :] - s2[:, None, :] + s3[None, :, :]
        ok = np.ones(n.shape[:2], dtype=bool)
        ok &= ~np.all(s2[:, None, :] == p1[None, None, :], axis=-1)
        ok &= ~np.all(s2[:, None, :] == s3[None, :, :], axis=-1)
        if n_cap is not None:
            ok &= bracket(n) <= n_cap + 1e-12
        i2, i3 = np.nonzero(ok)
        if i2.size:
            out.append(
                (
                    n[i2, i3],
                    np.broadcast_to(p1, (i2.size, 2)).copy(),
                    s2[i2],
                    s3[i3],
                )
            )
    if not out:
        z = np.zeros((0, 2), dtype=np.int64)
        return SparseTensor(z, z.copy(), z.copy(), z.copy(), np.zeros(0, dtype=np.int64))
    n = np.concatenate([o[0] for o in out])
    n1 = np.concatenate([o[1] for o in out])
    n2 = np.concatenate([o[2] for o in out])
    n3 = np.concatenate([o[3] for o in out])
    lev = resonance_phase(n, n1, n2, n3)
    return SparseTensor(n, n1, n2, n3, lev)


def fiber(tensor: SparseTensor, level: int) -> SparseTensor:
    """Restrict the support to interactions with resonance phase == level."""
    keep = tensor.levels == level
    return SparseTensor(
        tensor.n[keep],
        tensor.n1[keep],
        tensor.n2[keep],
        tensor.n3[keep],
        tensor.levels[keep],
    )


def _group_index(tensor: SparseTensor, slots: tuple) -> np.ndarray:
    # encode each (x, y) mode pair as a scalar key, then combine slots;
    # scalar np.unique is far cheaper than row-wise unique
    key = np.zeros(tensor.nnz, dtype=np.int64)
    for s in slots:
        col = getattr(tensor, s).astype(np.int64)
        off = int(max(np.abs(col).max(initial=0), 1)) + 1
        span = 2 * off + 1
        pair = (col[:, 0] + off) * span + (col[:, 1] + off)
        key = key * (span * span) + pair
    _, idx = np.unique(key, return_inverse=True)
    return idx


def matricization_norm(
    tensor: SparseTensor, rows: tuple, certify: bool = False, tol: float = 1e-8
) -> float:
    """Largest singular value of the tensor flattened to rows x columns.

    rows: slot names (subset of n, n1, n2, n3); the complement indexes
    the columns.  Uses power iteration on the Gram matrix, which stops
    when two successive iterates differ by at most `tol` relative; the
    value is a lower estimate and can sit further below the norm than
    `tol` (up to about 2.5e-8 relative on small shells).  With certify=True a
    dense SVD cross-check runs when the matrix is small.
    """
    if tensor.nnz == 0:
        return 0.0
    cols = tuple(s for s in ("n", "n1", "n2", "n3") if s not in rows)
    ri = _group_index(tensor, rows)
    ci = _group_index(tensor, cols)
    nr, nc = int(ri.max()) + 1, int(ci.max()) + 1
    mat = sp.coo_matrix(
        (np.ones(tensor.nnz), (ri, ci)), shape=(nr, nc)
    ).tocsr()
    if min(nr, nc) == 1:
        val = float(np.sqrt((mat.multiply(mat)).sum()))
        return val
    # power iteration on A^T A (values are 0/1 so the matrix is nonnegative
    # and the iteration converges monotonically from a positive start)
    if nc <= nr:
        a = mat
    else:
        a = mat.T.tocsr()
    at = a.T  # a view; building it inside the loop costs more than the matvecs
    v = np.full(a.shape[1], 1.0 / np.sqrt(a.shape[1]))
    val = 0.0
    converged = False
    for _ in range(1000):
        w = a @ v
        v_new = at @ w
        norm = float(np.linalg.norm(v_new))
        if norm == 0.0:
            return 0.0
        new_val = float(np.sqrt(norm))
        v = v_new / norm
        if abs(new_val - val) <= tol * max(new_val, 1.0):
            val = new_val
            converged = True
            break
        val = new_val
    if not converged:
        # near-degenerate top singular values stall the value estimate;
        # fall back to a dense Gram eigenvalue on the smaller side
        if min(nr, nc) <= 4000:
            gram = (at @ a).toarray()
            val = float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
        else:
            raise RuntimeError(
                f"matricization power iteration did not converge to {tol} "
                f"within 1000 iterations (rows={rows})"
            )
    if certify and max(nr, nc) <= 2000:
        dense = float(np.linalg.norm(mat.toarray(), 2))
        if abs(dense - val) > 1e-6 * max(dense, 1.0):
            raise AssertionError(
                f"sparse singular value {val} disagrees with dense SVD {dense}"
            )
    return val


def tensor_norms(tensor: SparseTensor) -> dict:
    """The two operator norms: maxima over the admissible matricizations.

    norm1: max over row groups {n}, {n1}, {n,n2}, {n,n3}.
    norm2: max over row groups {n}, {n,n1}.
    """
    fam1 = [("n",), ("n1",), ("n", "n2"), ("n", "n3")]
    fam2 = [("n",), ("n", "n1")]
    cache = {r: matricization_norm(tensor, r)
             for r in dict.fromkeys(fam1 + fam2)}
    vals1 = {r: cache[r] for r in fam1}
    vals2 = {r: cache[r] for r in fam2}
    return {
        "norm1": max(vals1.values()),
        "norm2": max(vals2.values()),
        "norm1_parts": vals1,
        "norm2_parts": vals2,
    }


def fiber_norm_sup(tensor: SparseTensor) -> dict:
    """sup over resonance levels of the fiber norms, in one pass.

    Returns {"norm1": ..., "norm2": ...}, each the largest `tensor_norms`
    value of that name over the fibers.
    """
    order = np.argsort(tensor.levels, kind="stable")
    sorted_levels = tensor.levels[order]
    bounds = np.flatnonzero(np.diff(sorted_levels)) + 1
    starts = np.concatenate([[0], bounds])
    stops = np.concatenate([bounds, [len(sorted_levels)]])
    best = {"norm1": 0.0, "norm2": 0.0}
    for lo, hi in zip(starts, stops):
        sel = order[lo:hi]
        f = SparseTensor(tensor.n[sel], tensor.n1[sel], tensor.n2[sel],
                         tensor.n3[sel], tensor.levels[sel])
        norms = tensor_norms(f)
        for key in best:
            best[key] = max(best[key], norms[key])
    return best


DEFAULT_SHELL_SWEEPS: tuple = (
    ((1, 1, 1), (2, 2, 2), (4, 4, 4)),
    ((2, 1, 1), (4, 2, 2)),
    ((2, 2, 1), (4, 4, 2)),
    ((4, 2, 1), (8, 4, 2)),
)

_RATIO_KEYS = ("ratio_norm1", "ratio_fiber1", "ratio_norm2", "ratio_fiber2")


def verify_tensor_bounds(
    shell_sweeps: tuple = DEFAULT_SHELL_SWEEPS,
    eps: float = 0.1,
    slope_tol: float = 0.15,
) -> dict:
    """Fitted constants for the four bound families across shell sweeps.

    Bounds checked (N_max >= N_med >= N_min the sorted shell sizes):
      norm1        <= C  * N_max * N_med
      sup_m fiber1 <= C' * N_max^{0.5+eps} * N_med^{0.5}
      norm2        <= C  * N_max * N_min
      sup_m fiber2 <= C' * N_max^{0.5+eps} * N_min^{0.5}

    Each sweep holds the shape of the shell triple fixed while doubling
    the overall scale, so the per-sweep slope of log(fitted constant)
    versus log(N_max) isolates scale dependence from shape dependence.
    Per bound family the trend is aggregated as the mean slope over the
    sweeps; flat trends (|mean slope| <= slope_tol) support the stated
    scalings.  Small shells are preasymptotic, so individual per-sweep
    slopes (also reported) can sit slightly above the tolerance.
    """
    rows = []
    sweep_slopes: dict = {k: [] for k in _RATIO_KEYS}
    for sweep in shell_sweeps:
        sweep_rows = []
        for shells in sweep:
            t = build_tensor(shells)
            ns = sorted(shells, reverse=True)
            nmax, nmed, nmin = float(ns[0]), float(ns[1]), float(ns[2])
            norms = tensor_norms(t)
            sups = fiber_norm_sup(t)
            f1, f2 = sups["norm1"], sups["norm2"]
            sweep_rows.append(
                {
                    "shells": shells,
                    "nnz": t.nnz,
                    "ratio_norm1": norms["norm1"] / (nmax * nmed),
                    "ratio_fiber1": f1 / (nmax ** (0.5 + eps) * nmed**0.5),
                    "ratio_norm2": norms["norm2"] / (nmax * nmin),
                    "ratio_fiber2": f2 / (nmax ** (0.5 + eps) * nmin**0.5),
                }
            )
        rows.extend(sweep_rows)
        log_nmax = np.log([max(r["shells"]) for r in sweep_rows])
        for key in _RATIO_KEYS:
            log_c = np.log([r[key] for r in sweep_rows])
            slope = np.polyfit(log_nmax, log_c, 1)[0]
            sweep_slopes[key].append(float(slope))
    trend_slopes = {k: float(np.mean(v)) for k, v in sweep_slopes.items()}
    passed = all(abs(s) <= slope_tol for s in trend_slopes.values())
    return {
        "eps": eps,
        "slope_tol": slope_tol,
        "rows": rows,
        "per_sweep_slopes": sweep_slopes,
        "trend_slopes": trend_slopes,
        "passed": passed,
    }
