"""Lattice point counting and the sparse convolution tensor.

The resonance phase of an interaction (n; n1, n2, n3) on the plane
n = n1 - n2 + n3 is the even integer

    kappa = <n>^2 - <n1>^2 + <n2>^2 - <n3>^2 = 2 <n2 - n1, n2 - n3>.

`count_set` counts pairing-free solutions of a linear + quadratic pair
of constraints inside translated boxes, the quantity controlled by the
counting estimate |S| <~ N2^{1+eps} N3 (N2, N3 the two smallest box
sizes).

`build_tensor` materializes the 0/1 tensor supported on dyadic-shell
interactions, as int16 coordinates and int32 levels; its matricization
norms (largest singular values of the row-group/column-group flattenings)
and the corresponding norms of its resonance-level fibers are the
quantities the tensor estimates bound.  Flattenings rank slot modes and
row/column keys on dense tables, or, past the table limit, by one sort of
each key packed with its index into an int64; a single-slot side has the
closed-form norm sqrt(largest entry count of one of its modes).  Ranking
calls neither np.unique nor, while a key and its index pack into 63 bits,
a stable argsort.

Any 0/1 flattening with row counts r_i and column counts c_j has norm^2 <=
max r_i c_j over its ones (the weighted Schur test), with equality when the
maximum sits on a closed all-ones block; that is checked by counting before
any graph search, and only a flattening that fails it is split into the
connected blocks of its row/column graph.  Off resonance the bound is
attained: every pairing n2 = n1 or n2 = n3 has kappa = 0, so at kappa != 0
no pairing exclusion removes an entry, and a row and a column of a
two-slot flattening meet exactly when they agree on the linear constraint
(n + n2 = n1 + n3 for rows (n, n2); likewise for (n, n1) and (n, n3)) and
on the quadratic one at that kappa.  Each fiber block is then a complete
product of a row set and a column set, so a level-keyed flattening fails
the check only when its largest count product lies at kappa = 0.

So `verify_tensor_bounds` takes the fiber sups of the three two-slot row
groups from pair counts over the shells, with no flattening: off resonance
the sup is sqrt of the largest row count times column count over one
linear key and two unequal quadratic classes, and the resonant fiber alone
goes through the block path.  The plain norms come from the same counts:
a plain two-slot flattening is block diagonal over its linear key, each
block all ones less the pairings in it, so only the blocks whose Schur
bound can win are built, and the single-slot norms are entry counts per
mode.  The tensor path (`tensor_norms`, `fiber_norm_sup`) is their oracle,
and it still gives the single-slot fiber sups and the resonant fiber.
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
INT16_MAX = np.iinfo(np.int16).max  # support coordinates are stored as int16
_SLOTS = ("n", "n1", "n2", "n3")


def resonance_phase(n, n1, n2, n3) -> np.ndarray:
    """kappa = |n|^2 - |n1|^2 + |n2|^2 - |n3|^2 (the brackets' +1s cancel).

    Computed in int64 whatever the input dtype, so int16 coordinates cannot
    overflow when squared.
    """
    sq = lambda v: np.sum(np.asarray(v, dtype=np.int64) ** 2, axis=-1)
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
    """Count solutions by enumerating the boxes of y and z.

    The box of x is eliminated through the linear constraint; y and z
    are enumerated (vectorized over z), so the cost is |box_y| * |box_z|
    whatever the sizes of the three boxes.
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

    Stored as the (nnz, 2) coordinate arrays of its support, int16 as built
    by `build_tensor`; `levels` (int32) holds the resonance phase of each
    support point.  Support entries are distinct, so any three slots fix
    the fourth and the norms may take each entry as a single 1.
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
    """Points with n_lo <= <n - center> < 2*n_lo, in lexicographic order.

    A shell below 1 (as n_lo = 0.5) is empty, as <m> >= 1; a size that is
    not finite and positive is refused.
    """
    if not (np.isfinite(n_lo) and n_lo > 0):
        raise ValueError(f"shell size {n_lo!r} is not finite and positive")
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
    n_cap optionally restricts the output mode to <n> <= n_cap.  The levels
    are `resonance_phase` of the coordinates, summed from per-shell squared
    norms.
    """
    s1, s2, s3 = (_shell(c, n_lo) for c, n_lo in zip(centers, shells))
    if s1.shape[0] * s2.shape[0] * s3.shape[0] > SUPPORT_GUARD:
        raise ValueError("shell volumes exceed the support guard")
    # every point of the shells, and the box that holds n = n1 - n2 + n3,
    # must fit the int16 coordinates stored
    box = (s1.min(0) - s2.max(0) + s3.min(0), s1.max(0) - s2.min(0) + s3.max(0)
           ) if s1.size and s2.size and s3.size else ()
    if max(np.abs(v).max(initial=0) for v in (s1, s2, s3, *box)) > INT16_MAX:
        raise ValueError("mode coordinates beyond the int16 range")
    s1, s2, s3 = (s.astype(np.int16) for s in (s1, s2, s3))
    # the support as a mask over the product of the shells
    ok = np.empty((len(s1), len(s2), len(s3)), dtype=bool)
    ok[:] = np.any(s2[:, None, :] != s3[None, :, :], axis=-1)
    ok &= np.any(s1[:, None, :] != s2[None, :, :], axis=-1)[:, :, None]
    if n_cap is not None:
        for k, p1 in enumerate(s1):
            ok[k] &= bracket(p1 - s2[:, None, :] + s3[None, :, :]) <= n_cap + 1e-12
    # the support as a flat index over the product of the shells (int32:
    # the support guard keeps the product below 2^31), unravelled last slot
    # first; per slot, gather the points (an int16 pair read as one int32)
    # and add the slot's part of |n|^2 - |n1|^2 + |n2|^2 - |n3|^2 from the
    # shell's squared norms, in exact int64, with one slot index alive
    index = np.flatnonzero(ok).astype(np.int32)
    del ok
    points, levels = [], np.zeros(index.size, dtype=np.int64)
    for s, sign in ((s3, -1), (s2, 1), (s1, -1)):
        i = index % len(s)
        index //= len(s)
        levels += (sign * np.sum(s.astype(np.int64) ** 2, axis=-1))[i]
        points.insert(0, np.take(s.view(np.int32)[:, 0], i).view(np.int16).reshape(-1, 2))
        del i
    del index
    n1, n2, n3 = points
    n = n1 - n2 + n3  # int16 wraps modulo 2^16, so n is exact inside its box
    for c in n.T:
        levels += np.square(c, dtype=np.int64)
    if np.abs(levels).max(initial=0) > np.iinfo(np.int32).max:
        raise ValueError("resonance phases beyond the int32 range")
    return SparseTensor(n, n1, n2, n3, levels.astype(np.int32))


def fiber(tensor: SparseTensor, level: int) -> SparseTensor:
    """Restrict the support to interactions with resonance phase == level."""
    keep = tensor.levels == level
    return SparseTensor(*(getattr(tensor, f)[keep] for f in _SLOTS + ("levels",)))


NORM_TOL = 1e-12  # relative width of the certified interval of an iterated block
_TABLE_MAX = 1 << 22  # longest key range ranked by a table rather than a sort
_TABLE_PER_ENTRY = 4  # most keys per entry ranked by a table rather than a sort
_FAM1 = (("n",), ("n1",), ("n", "n2"), ("n", "n3"))
_FAM2 = (("n",), ("n", "n1"))


def _stable_order(key: np.ndarray) -> tuple:
    """Stable sorting order (int64) of non-negative integer keys, and the
    keys (int64) in that order.

    Each key is packed with its index as key << b | index (b the bit length
    of size - 1), so one in-place sort of distinct int64 values gives both;
    np.argsort(kind="stable") gives the order when the two do not fit in
    63 bits.
    """
    bits = max(key.size - 1, 0).bit_length()
    if int(key.max(initial=0)) >> (63 - bits):
        order = np.argsort(key, kind="stable")
        return order, key[order].astype(np.int64, copy=False)
    packed = key.astype(np.int64)
    packed <<= bits
    packed |= np.arange(key.size)
    packed.sort()
    order = packed & ((1 << bits) - 1)
    packed >>= bits
    return order, packed


def _lex_ids(columns, size: int) -> np.ndarray:
    """Rank (int32) of each of `size` entries among the distinct rows of the
    integer columns taken together, in lexicographic order.

    The ranks are np.unique's inverse of the rows.  The mixed-radix key of a
    row over the columns' bounding box is ranked by marking a table over the
    box and summing it up, with no sort, unless the box is longer than
    _TABLE_MAX or _TABLE_PER_ENTRY keys per entry (the table takes 5 bytes a
    key, the sort about 21 an entry, and near 4 keys an entry the two take
    the same time); then the keys are sorted by `_stable_order` and numbered
    by a running count of the runs they start.
    """
    if size == 0:
        return np.zeros(0, dtype=np.int32)
    key, span = np.zeros(size, dtype=np.int64), 1
    for c in columns:
        lo = int(c.min())
        width = int(c.max()) - lo + 1
        if span == 1:  # the key is all zeros so far
            np.subtract(c, lo, out=key, dtype=np.int64)
        else:
            if span * width > 1 << 62:  # renumber densely before int64 overflows
                key = _lex_ids((key,), size).astype(np.int64)
                span = int(key.max()) + 1
            key *= width
            key += c
            key -= lo
        span *= width
    if span > min(_TABLE_MAX, _TABLE_PER_ENTRY * size):
        order, key = _stable_order(key)
        starts = np.empty(size, dtype=bool)
        starts[0] = False
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        ids = np.empty(size, dtype=np.int32)
        ids[order] = np.cumsum(starts, dtype=np.int32)
        return ids
    table = np.zeros(span, dtype=bool)
    table[key] = True
    table = np.cumsum(table, dtype=np.int32)
    ids = table[key]
    ids -= 1
    return ids


def _slot_ranks(tensor: SparseTensor) -> dict:
    """Per slot, the rank of each entry's mode among the slot's modes."""
    return {s: _lex_ids(getattr(tensor, s).T, tensor.nnz) for s in _SLOTS}


def _flatten(ranks: dict, rows: tuple, per_level: bool = False) -> tuple:
    """Row and column index of each entry in the rows x columns flattening.

    ranks: `_slot_ranks` of the tensor, plus the level ranks under "level"
    when per_level, which then lead both keys.  Rows and columns are
    numbered in the lexicographic order of their modes.
    """
    cols = tuple(s for s in _SLOTS if s not in rows)
    lead = ("level",) if per_level else ()
    return tuple(_lex_ids([ranks[s] for s in lead + side], ranks["n"].size)
                 for side in (rows, cols))


def _norm(ranks: dict, rows: tuple, per_level: bool = False, tol: float = NORM_TOL
          ) -> float:
    """Norm of the rows x columns flattening, block diagonal over the levels
    when per_level (see `_flatten`)."""
    cols = tuple(s for s in _SLOTS if s not in rows)
    if 1 in (len(rows), len(cols)):
        # the other three slots fix the lone one and entries are distinct,
        # so each line of the other side holds one entry: the blocks are
        # stars, one per mode of the lone slot, of norm sqrt(entry count),
        # the value `_flattening_norm` gives them
        lone = (("level",) if per_level else ()) + (rows if len(rows) == 1 else cols)
        ids = _lex_ids([ranks[s] for s in lone], ranks["n"].size)
        return float(np.sqrt(np.bincount(ids).max(initial=0)))
    return _flattening_norm(*_flatten(ranks, rows, per_level), tol)


def _attained_count(ri: np.ndarray, ci: np.ndarray, r_sum: np.ndarray,
                    c_sum: np.ndarray) -> np.int64 | None:
    """max r_i c_j over the ones (an int64) when the weighted Schur test
    norm^2 <= max r_i c_j is attained by a closed all-ones block, else None.

    r_sum and c_sum are the row and column counts of the ones at (ri[k],
    ci[k]).  Take a one (i*, j*) where the maximum is reached: the bound is
    attained when the rows of column j* and the columns of row i* span an
    all-ones submatrix, whose norm is sqrt(r_i* c_j*).  By the maximality
    of (i*, j*), no row of that submatrix has a one outside it (r_i c_j* <=
    r_i* c_j* bounds its count by r_i*), and likewise no column, so it is a
    closed block of the row/column graph.
    """
    weight = r_sum[ri]
    weight *= c_sum[ci]
    k = int(np.argmax(weight))
    # the rows of column j* hold r_i* ones each, all in the columns of row i*
    rows, cols = ri[ci == ci[k]], ci[ri == ri[k]]
    in_rows = np.zeros(r_sum.size, dtype=bool)
    in_rows[rows] = True
    in_cols = np.zeros(c_sum.size, dtype=bool)
    in_cols[cols] = True
    if np.all(r_sum[rows] == cols.size) and np.all(in_cols[ci[in_rows[ri]]]):
        return weight[k]
    return None


def _flattening_norm(ri: np.ndarray, ci: np.ndarray, tol: float) -> float:
    """Largest singular value of the 0/1 matrix with ones at (ri[k], ci[k]).

    Rows and columns are numbered from 0 without gaps; no pair repeats.
    When `_attained_count` certifies max r_i c_j over the ones (r_i, c_j the
    row and column counts), the norm is its square root, the value the
    block path gives that closed block, which wins there.

    Otherwise the norm is the largest over the connected blocks of the
    row/column graph; a block with one row, one column or no zero has norm
    sqrt(nnz).  The other blocks are visited by decreasing size, and any
    that may beat the running maximum (by its Frobenius and Schur bounds)
    is power-iterated on its Gram matrix G from a positive v between the
    Collatz-Wielandt bounds sqrt(v.Gv/v.v) and sqrt(max_i (Gv)_i/v_i), to
    relative width `tol` or until rounding stops the interval shrinking,
    and gives the lower end.  Entries are gathered only for the visited
    blocks, in runs of 1, 2, 4, ... blocks, one scan of the entries per
    run.  A block's value depends only on its entries in their given order,
    so a block-diagonal matrix gets, bit for bit, the largest of its blocks'
    own norms.
    """
    # imported here: csgraph adds tens of ms and about 9 MB to importing
    # the package, and only tensor norms need it
    from scipy.sparse.csgraph import connected_components

    if ri.size == 0:
        return 0.0
    r_sum, c_sum = np.bincount(ri), np.bincount(ci)
    count = _attained_count(ri, ci, r_sum, c_sum)
    if count is not None:
        return float(np.sqrt(count))
    nr, nc = r_sum.size, c_sum.size
    graph = sp.coo_matrix((np.ones(ri.size, dtype=np.int8), (ri, ci + nr)),
                          shape=(nr + nc, nr + nc))
    n_blocks, label = connected_components(graph, directed=False)
    del graph
    row_label, col_label = label[:nr], label[nr:]
    nnz = np.bincount(row_label, weights=r_sum, minlength=n_blocks).astype(np.int64)
    n_rows = np.bincount(row_label, minlength=n_blocks)
    n_cols = np.bincount(col_label, minlength=n_blocks)
    closed = (n_rows == 1) | (n_cols == 1) | (nnz == n_rows * n_cols)
    best = float(np.sqrt(nnz[closed].max(initial=0)))
    max_row = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(max_row, row_label, r_sum)
    max_col = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(max_col, col_label, c_sum)
    bound = np.sqrt(np.minimum(nnz, max_row * max_col))
    # the open blocks that may beat the closed ones, by decreasing size
    visit = np.flatnonzero(~closed & (bound > best))
    if visit.size == 0:
        return best
    visit = visit[np.argsort(-nnz[visit], kind="stable")]
    size, bound = nnz[visit], bound[visit]
    # each entry's block by its place in that order (visit.size if none)
    rank = np.full(n_blocks, visit.size, dtype=np.int32)
    rank[visit] = np.arange(visit.size)
    block = rank[row_label][ri]
    first = stop = 0
    for j in range(visit.size):
        if bound[j] <= best:
            continue
        if j >= stop:
            # gather the entries of the next run of blocks (1, 2, 4, ...
            # blocks long), grouped by block, each in its given order
            first, stop = j, min(visit.size, j + max(1, 2 * (stop - first)))
            run = np.flatnonzero((block >= first) & (block < stop))
            run = run[_stable_order(block[run] - first)[0]]
            ends = np.cumsum(size[first:stop])
        end = ends[j - first]
        sel = run[end - size[j]:end]
        r = _lex_ids((ri[sel],), sel.size)
        c = _lex_ids((ci[sel],), sel.size)
        if r.max() < c.max():  # iterate on the smaller side
            r, c = c, r
        v = np.bincount(c).astype(np.float64)  # column sums: a positive start
        lo, hi, width = 0.0, float(bound[j]), np.inf
        while best < hi and tol * hi < hi - lo < width:
            width = hi - lo
            w = np.bincount(c, weights=np.bincount(r, weights=v[c])[r])
            lo = max(lo, float(np.sqrt(v @ w / (v @ v))))
            hi = min(hi, float(np.sqrt(np.max(w / v))))
            v = w / np.max(w)
        best = max(best, min(lo, hi))
    return best


def matricization_norm(
    tensor: SparseTensor, rows: tuple, certify: bool = False, tol: float = NORM_TOL
) -> float:
    """Largest singular value of the tensor flattened to rows x columns.

    rows: slot names (subset of n, n1, n2, n3); the complement indexes
    the columns.  Exact (sqrt of an entry count) when one side is a single
    slot or a closed-form block wins, else the lower end of a certified
    interval of relative width `tol` (default 1e-12) around the norm; see
    `_flattening_norm`.  With certify=True a dense SVD of the full
    flattening cross-checks the value when neither side exceeds 2000 and
    raises AssertionError beyond 1e-10 relative.
    """
    ranks = _slot_ranks(tensor)
    val = _norm(ranks, rows, tol=tol)
    if not certify:
        return val
    ri, ci = _flatten(ranks, rows)
    if max(ri.max(initial=0), ci.max(initial=0)) < 2000:
        mat = np.zeros((ri.max(initial=0) + 1, ci.max(initial=0) + 1))
        mat[ri, ci] = 1.0
        dense = float(np.linalg.norm(mat, 2))
        if abs(dense - val) > 1e-10 * max(dense, 1.0):
            raise AssertionError(
                f"sparse singular value {val} disagrees with dense SVD {dense}"
            )
    return val


def tensor_norms(tensor: SparseTensor) -> dict:
    """The two operator norms: maxima over the admissible matricizations.

    norm1: max over row groups {n}, {n1}, {n,n2}, {n,n3}.
    norm2: max over row groups {n}, {n,n1}.
    """
    ranks = _slot_ranks(tensor)
    vals = {r: _norm(ranks, r) for r in dict.fromkeys(_FAM1 + _FAM2)}
    vals1, vals2 = ({r: vals[r] for r in fam} for fam in (_FAM1, _FAM2))
    return {"norm1": max(vals1.values()), "norm2": max(vals2.values()),
            "norm1_parts": vals1, "norm2_parts": vals2}


def fiber_norm_sup(tensor: SparseTensor) -> dict:
    """sup over resonance levels of the fiber norms.

    Returns {"norm1": ..., "norm2": ...}, each bit for bit the largest
    `tensor_norms` value of that name over the fibers.  The level rank
    leads every row and column key, so each flattening is block diagonal
    over the levels and one call per row group gives the sup.
    """
    ranks = dict(_slot_ranks(tensor), level=_lex_ids((tensor.levels,), tensor.nnz))
    sup = {r: _norm(ranks, r, per_level=True) for r in dict.fromkeys(_FAM1 + _FAM2)}
    return {"norm1": max(sup[r] for r in _FAM1),
            "norm2": max(sup[r] for r in _FAM2)}


def _top_two(key: np.ndarray, cls: np.ndarray, n_keys: int) -> tuple:
    """Per key 0..n_keys-1 of the items (key[k], cls[k]): the largest item
    count of one class, that class, and the largest count of another class
    (0 where there is none), as three int64 arrays."""
    ids = _lex_ids((key, cls), key.size)
    count = np.bincount(ids)
    first = np.empty(count.size, dtype=np.int64)
    first[ids] = np.arange(key.size)
    key, cls = key[first], cls[first]  # one item per (key, class), by key
    # by key, and within a key by decreasing count
    order = _stable_order(key * (count.max() + 1) + count.max() - count)[0]
    key, cls, count = key[order], cls[order], count[order]
    out = np.zeros((3, n_keys), dtype=np.int64)
    lead = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=lead[1:])
    top = np.flatnonzero(lead)
    out[0, key[top]], out[1, key[top]] = count[top], cls[top]
    second = top[top + 1 < key.size] + 1
    second = second[~lead[second]]
    out[2, key[second]] = count[second]
    return tuple(out)


def _largest_product(key: np.ndarray, col_cls: np.ndarray, lone: np.ndarray,
                     row_cls) -> int:
    """max R*C over the keys and the pairs of unequal classes of a two-slot
    flattening off resonance (0 if none).

    key, col_cls: the (m, 2) key and the class of each column, one per
    pair of the column slots' shells.  Rows are keyed by the same keys:
    row_cls(keys, lone) gives the class of each key (first axis) and point
    of the lone row slot's shell (second axis).  C and R count the columns
    and the rows of one key and class.
    """
    if key.size == 0 or lone.size == 0:
        return 0
    kid = _lex_ids(key.T, len(key))
    first = np.empty(int(kid.max()) + 1, dtype=np.int64)
    first[kid] = np.arange(len(key))
    keys = key[first]
    r1, r_cls, r2 = _top_two(np.repeat(np.arange(len(keys)), len(lone)),
                             row_cls(keys[:, None], lone[None]).ravel(), len(keys))
    c1, c_cls, c2 = _top_two(kid, col_cls, len(keys))
    prod = np.where(r_cls == c_cls, np.maximum(r1 * c2, r2 * c1), r1 * c1)
    return int(prod.max())


def _count_fiber_sups(ranks: dict, levels: np.ndarray, shells: tuple,
                      centers: tuple = ((0, 0), (0, 0), (0, 0))) -> dict:
    """Per row group of _FAM1 + _FAM2, the sup over the resonance levels of
    the fiber norms of `build_tensor(shells, centers)` (no n_cap), whose
    slot ranks and levels are given: bit for bit `_norm(ranks with level,
    rows, per_level=True)`.

    The single-slot groups take that closed form.  A two-slot group's sup
    is the larger of its largest complete block off resonance,
    sqrt(max R*C) by `_largest_product`, and the norm of its resonant fiber
    by the block path.  The keys and classes (kappa the level):
      {n,n2}  p = n1 + n3, rows |p - n2|^2 + |n2|^2, columns |n1|^2 + |n3|^2,
              kappa their difference;
      {n,n1}  d = n3 - n2, rows <n1, d>, columns <n2, d>, kappa twice the
              difference;
      {n,n3}  e = n1 - n2, rows <n3, e>, columns <n2, e>, likewise.
    """
    dot = lambda u, v: np.sum(u * v, axis=-1)
    # every pair of points of two shells, as two aligned arrays
    pairs = lambda u, v: (np.repeat(u, len(v), axis=0), np.tile(v, (len(u), 1)))
    s1, s2, s3 = (_shell(c, n_lo) for c, n_lo in zip(centers, shells))
    # a single-slot sup counts the entries of each (level, mode): the levels
    # themselves rank those pairs as their level ranks would
    sups = {r: _norm(dict(ranks, level=levels), r, per_level=True)
            for r in (("n",), ("n1",))}
    resonant = levels == 0
    res_ranks = {s: ranks[s][resonant] for s in _SLOTS}
    n1, n3 = pairs(s1, s3)
    n2, m3 = pairs(s2, s3)
    m1, m2 = pairs(s1, s2)
    d, e = m3 - n2, m1 - m2
    counts = {
        ("n", "n2"): (n1 + n3, dot(n1, n1) + dot(n3, n3), s2,
                      lambda p, z: dot(p - z, p - z) + dot(z, z)),
        ("n", "n1"): (d, dot(n2, d), s1, dot),
        ("n", "n3"): (e, dot(m2, e), s3, dot),
    }
    for rows, args in counts.items():
        off = float(np.sqrt(_largest_product(*args)))
        sups[rows] = max(off, _norm(res_ranks, rows))
    return sups


def _pairings(s1: np.ndarray, s2: np.ndarray, s3: np.ndarray) -> tuple:
    """Shell indices (i1, i2, i3) of the triples of S1 x S2 x S3 with n2 = n1
    or n2 = n3, each once: the pairings that `build_tensor` leaves out."""
    pack = lambda s: s[:, 0].astype(np.int64) * (1 << 32) + s[:, 1]
    common = lambda u, v: np.intersect1d(pack(u), pack(v), assume_unique=True,
                                         return_indices=True)[1:]
    a1, a2 = common(s1, s2)  # n1 = n2, any n3
    b3, b2 = common(s3, s2)  # n3 = n2, any n1 but n2 itself
    j1, j2, j3 = np.tile(np.arange(len(s1)), b2.size), np.repeat(b2, len(s1)), \
        np.repeat(b3, len(s1))
    partner = np.full(len(s1), -1)
    partner[a1] = a2
    once = partner[j1] != j2
    return (np.concatenate([np.repeat(a1, len(s3)), j1[once]]),
            np.concatenate([np.repeat(a2, len(s3)), j2[once]]),
            np.concatenate([np.tile(np.arange(len(s3)), a1.size), j3[once]]))


def _line_max(key: np.ndarray, left_out: np.ndarray, lines: np.ndarray,
              full: np.ndarray) -> np.ndarray:
    """Per key, the largest count of ones in one of its `lines` lines (rows
    or columns) of `full` cells each, of which the line listed j has
    left_out[j] cells cleared (key[j] its key; each line listed once)."""
    best = np.where(np.bincount(key, minlength=lines.size) < lines, full, 0)
    np.maximum.at(best, key, full[key] - left_out)
    return best


_RUN_ENTRIES = 1 << 14  # most entries of a run of key blocks, unless one holds more

# per two-slot row group of the plain norms: the lone row slot z and the
# column slots (a, b), a before b; n = n1 - n2 + n3 makes the flattening
# block diagonal over a + b when z is n2 (n + n2 = n1 + n3), else a - b
_PLAIN_BLOCKS = {("n", "n2"): ("n2", "n1", "n3"),
                 ("n", "n1"): ("n1", "n2", "n3"),
                 ("n", "n3"): ("n3", "n1", "n2")}


def _count_plain_norms(points: tuple, pairings: tuple) -> dict:
    """Per row group of _FAM1 + _FAM2, the norm of the plain flattening of
    the tensor that `build_tensor` (no n_cap) makes of the point sets
    `points` (S1, S2, S3, each in lexicographic order as `_shell` gives
    them), whose `_pairings` are given: bit for bit `_norm(ranks, rows)`.

    The single-slot groups take sqrt of the largest entry count of one
    mode: |S2||S3| less the pairings of n1, and for n the triples with
    n1 + n3 - n2 = n, from the pair counts C(p) of p = n1 + n3, less the
    pairings.  Key block k of a two-slot group (see _PLAIN_BLOCKS) is the
    all-ones |S_z| x C(k) block of the lone points and the column pairs of
    key k, less the pairings in it: at most two per row and per column, or
    all of them when a = b throughout.  So the pairings give each block's
    nnz and its exact largest row and column counts.  The blocks are
    visited by decreasing Schur bound sqrt(min(nnz, max row * max column)),
    and those whose bound beats the largest norm so far are built, in tensor
    order and with rows and columns ranked as the flattening ranks them,
    and taken by `_flattening_norm`, in runs of 1, 4, 16, ... blocks of at
    most _RUN_ENTRIES entries (or one larger block), so that the many small
    blocks of one bound that lattice symmetry makes share a call.  The
    components of a run are the flattening's, each with its entries in the
    same order, so the value of each is theirs.
    """
    slot_pts = dict(zip(_SLOTS[1:], points))
    slot_ids = dict(zip(_SLOTS[1:], pairings))
    sizes = [len(s) for s in points]
    per_n1 = sizes[1] * sizes[2] - np.bincount(pairings[0], minlength=sizes[0])
    norms = {("n1",): float(np.sqrt(per_n1.max(initial=0)))}
    for rows, (lone, a, b) in _PLAIN_BLOCKS.items():
        z_pts, a_pts, b_pts = (slot_pts[s] for s in (lone, a, b))
        nz = len(z_pts)
        sign = 1 if lone == "n2" else -1
        key = (a_pts[:, None] + sign * b_pts[None]).reshape(-1, 2)  # a major
        kid = _lex_ids(key.T, len(key))
        count = np.bincount(kid)  # C(k): column pairs of key k
        # the pairings: z, the column (a, b) as a * |S_b| + b, and its key
        z, col = slot_ids[lone], slot_ids[a] * len(b_pts) + slot_ids[b]
        k = kid[col]
        nnz = nz * count - np.bincount(k, minlength=count.size)
        row = _lex_ids((k, z), k.size)
        left_out = np.bincount(row)
        row_key = np.empty(left_out.size, dtype=np.int64)
        row_key[row] = k
        max_row = _line_max(row_key, left_out, np.full(count.size, nz), count)
        left_out = np.bincount(col, minlength=len(key))
        col = np.flatnonzero(left_out)
        max_col = _line_max(kid[col], left_out[col], count, np.full(count.size, nz))
        bound = np.sqrt(np.minimum(nnz, max_row * max_col))
        best, first, size = 0.0, 0, 1
        order = np.argsort(-bound, kind="stable")
        while first < order.size and bound[order[first]] > best:
            # the next run, built at once: the tensor orders entries by
            # (i1, i2, i3), so the lone index leads when z is n1; columns go
            # by a, rows by n = z + k, or n = k - z (descending z) when z is n2
            run = order[first:first + size]
            run = run[(bound[run] > best)
                      & (np.cumsum(nnz[run]) <= max(nnz[run[0]], _RUN_ENTRIES))]
            first, size = first + run.size, 4 * size
            place = np.full(count.size, -1)
            place[run] = np.arange(run.size)
            sel = np.flatnonzero(place[kid] >= 0)
            ca, cb = np.divmod(sel, len(b_pts))
            grid = np.meshgrid(np.arange(nz), np.arange(ca.size), indexing="ij")
            zi, ci = (g.ravel() if lone == "n1" else g.T.ravel() for g in grid)
            entry = {lone: z_pts[zi], a: a_pts[ca[ci]], b: b_pts[cb[ci]]}
            n1, n2, n3 = (entry[s] for s in _SLOTS[1:])
            keep = np.any(n2 != n1, axis=1) & np.any(n2 != n3, axis=1)
            ri = place[kid[sel]][ci] * nz
            ri += nz - 1 - zi if lone == "n2" else zi
            best = max(best, _flattening_norm(ri[keep], ci[keep], NORM_TOL))
        norms[rows] = best
        if lone == "n2":
            # {n}: the triples of mode n = p - n2 over the keys p = n1 + n3,
            # C(p) each, less the pairings of mode n
            p = np.empty_like(key[: count.size])
            p[kid] = key
            (s1, s2, s3), (i1, i2, i3) = points, pairings
            modes = np.concatenate([(p[:, None] - s2[None]).reshape(-1, 2),
                                    s1[i1] - s2[i2] + s3[i3]])
            weight = np.concatenate([np.repeat(count, len(s2)), np.full(i1.size, -1)])
            per_n = np.bincount(_lex_ids(modes.T, len(modes)), weights=weight)
            norms[("n",)] = float(np.sqrt(per_n.max(initial=0)))
    return norms


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

    The plain norms come from pair counts over the shells, with no tensor
    (`_count_plain_norms`), bit for bit the values of `tensor_norms`; a
    triple whose support is empty is refused before any norm is taken.
    The fiber sups take the single-slot groups and the resonant fiber from
    the built tensor and the off-resonance blocks of the two-slot groups
    from pair counts (`_count_fiber_sups`), bit for bit the values of
    `fiber_norm_sup`.
    """
    if not shell_sweeps:
        raise ValueError("no shell sweeps: a slope needs at least one sweep")
    for sweep in shell_sweeps:
        if len({max(shells) for shells in sweep}) < 2:
            raise ValueError(f"shell sweep {sweep} has fewer than two distinct "
                             "N_max, so it has no slope")
    rows = []
    sweep_slopes: dict = {k: [] for k in _RATIO_KEYS}
    for sweep in shell_sweeps:
        sweep_rows = []
        for shells in sweep:
            points = tuple(_shell((0, 0), n_lo) for n_lo in shells)
            pairings = _pairings(*points)
            if len(points[0]) * len(points[1]) * len(points[2]) == pairings[0].size:
                raise ValueError(f"shell triple {shells} has an empty support")
            ns = sorted(shells, reverse=True)
            nmax, nmed, nmin = float(ns[0]), float(ns[1]), float(ns[2])
            plain = _count_plain_norms(points, pairings)
            t = build_tensor(shells)
            sups = _count_fiber_sups(_slot_ranks(t), t.levels, shells)
            norm1, norm2, f1, f2 = (max(vals[r] for r in fam) for vals in (plain, sups)
                                    for fam in (_FAM1, _FAM2))
            sweep_rows.append(
                {
                    "shells": shells,
                    "nnz": t.nnz,
                    "ratio_norm1": norm1 / (nmax * nmed),
                    "ratio_fiber1": f1 / (nmax ** (0.5 + eps) * nmed**0.5),
                    "ratio_norm2": norm2 / (nmax * nmin),
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
