"""Counting queries, sparse convolution tensors, matricization norms."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from torus_phi4 import (
    CountQuery,
    SparseTensor,
    build_tensor,
    count_set,
    fiber,
    fiber_norm_sup,
    matricization_norm,
    resonance_phase,
    tensor_norms,
    verify_tensor_bounds,
)
from torus_phi4 import counting
from torus_phi4.counting import (_FAM1, _FAM2, _attained_count, _flatten,
                                 _flattening_norm, _lex_ids, _norm, _slot_ranks,
                                 _stable_order)
from torus_phi4.spectral import bracket


def _brute_count(q: CountQuery) -> int:
    i1, i2, i3 = q.signs

    def box(center, r):
        cx, cy = center
        return [
            (x, y)
            for x in range(cx - r, cx + r + 1)
            for y in range(cy - r, cy + r + 1)
        ]

    def br2(p):
        return 1 + p[0] ** 2 + p[1] ** 2

    total = 0
    for x in box(q.centers[0], q.radii[0]):
        for y in box(q.centers[1], q.radii[1]):
            for z in box(q.centers[2], q.radii[2]):
                lin = (
                    i1 * x[0] + i2 * y[0] + i3 * z[0],
                    i1 * x[1] + i2 * y[1] + i3 * z[1],
                )
                if lin != tuple(q.d):
                    continue
                if abs(i1 * br2(x) + i2 * br2(y) + i3 * br2(z) - q.alpha) > 1e-9:
                    continue
                if i1 == -i2 and x == y:
                    continue
                if i2 == -i3 and y == z:
                    continue
                if i1 == -i3 and x == z:
                    continue
                total += 1
    return total


def test_count_set_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(12):
        signs = tuple(int(v) for v in rng.choice([-1, 1], 3))
        centers = tuple(tuple(int(v) for v in rng.integers(-3, 4, 2)) for _ in range(3))
        radii = (3, 2, 2)
        # admissible targets: pick a random solution and read off d, alpha
        pts = [
            tuple(int(c[k] + rng.integers(-r, r + 1)) for k in range(2))
            for c, r in zip(centers, radii)
        ]
        i1, i2, i3 = signs
        d = tuple(
            int(i1 * pts[0][k] + i2 * pts[1][k] + i3 * pts[2][k]) for k in range(2)
        )
        br2 = lambda p: 1 + p[0] ** 2 + p[1] ** 2
        alpha = float(i1 * br2(pts[0]) + i2 * br2(pts[1]) + i3 * br2(pts[2]))
        q = CountQuery(signs, d, alpha, centers, radii)
        assert count_set(q) == _brute_count(q)


def test_resonance_phase_definition():
    n, n1, n2, n3 = (1, 0), (2, 1), (1, 2), (0, 1)
    expect = (1) - (4 + 1) + (1 + 4) - (1)
    assert resonance_phase(n, n1, n2, n3) == expect


def test_build_tensor_support():
    t = build_tensor((1, 1, 1))
    assert t.nnz > 0
    # convolution plane and shell membership
    np.testing.assert_array_equal(t.n, t.n1 - t.n2 + t.n3)
    for arr in (t.n1, t.n2, t.n3):
        br = bracket(arr)
        assert np.all((br >= 1.0) & (br < 2.0))
    # pairing exclusions
    assert not np.any(np.all(t.n2 == t.n1, axis=1))
    assert not np.any(np.all(t.n2 == t.n3, axis=1))
    np.testing.assert_array_equal(t.levels, resonance_phase(t.n, t.n1, t.n2, t.n3))


def test_build_tensor_far_centers_empty():
    t = build_tensor((1, 1, 1), centers=((100, 100), (0, 0), (0, 0)), n_cap=2)
    assert t.nnz == 0
    assert tensor_norms(t)["norm1"] == 0.0


def test_fiber_restricts_levels():
    t = build_tensor((2, 2, 2))
    lv = int(t.levels[0])
    f = fiber(t, lv)
    assert f.nnz == int(np.sum(t.levels == lv))
    assert np.all(f.levels == lv)


def test_matricization_rank_one_rows():
    # rows {n}: column sums are 1 (n determined by the triple), so the
    # norm is sqrt(max row count)
    t = build_tensor((2, 2, 2))
    val = matricization_norm(t, ("n",))
    _, counts = np.unique(
        t.n[:, 0] * 1000 + t.n[:, 1], return_counts=True
    )
    assert val == np.sqrt(counts.max())


def test_matricization_duality():
    t = build_tensor((2, 1, 1))
    a = matricization_norm(t, ("n", "n1"))
    b = matricization_norm(t, ("n2", "n3"))
    assert a == pytest.approx(b, rel=1e-12)


def test_matricization_matches_dense_svd():
    for shells in ((1, 1, 1), (2, 2, 1)):
        t = build_tensor(shells)
        for rows in (("n",), ("n1",), ("n", "n1"), ("n", "n2"), ("n", "n3")):
            # certify=True raises if the value disagrees with a dense SVD
            # beyond 1e-10
            matricization_norm(t, rows, certify=True)


def _dense_flattening(t, rows):
    # independent of the package's group indexing: np.unique over the
    # stacked coordinates of the row slots and of the column slots
    cols = tuple(s for s in ("n", "n1", "n2", "n3") if s not in rows)
    _, ri = np.unique(np.hstack([getattr(t, s) for s in rows]), axis=0,
                      return_inverse=True)
    _, ci = np.unique(np.hstack([getattr(t, s) for s in cols]), axis=0,
                      return_inverse=True)
    mat = np.zeros((ri.max() + 1, ci.max() + 1))
    mat[ri.ravel(), ci.ravel()] = 1.0
    return mat


def _dense_norm(t, rows):
    return float(np.linalg.svd(_dense_flattening(t, rows), compute_uv=False)[0])


@pytest.mark.parametrize("shells", [(1, 1, 1), (2, 1, 1),
                                    pytest.param((2, 2, 1), marks=pytest.mark.slow)])
def test_fiber_norm_sup_matches_per_level_and_dense_svd(shells):
    t = build_tensor(shells)
    sups = fiber_norm_sup(t)
    assert set(sups) == {"norm1", "norm2"}
    levels = np.unique(t.levels)
    per_level = [tensor_norms(fiber(t, int(lv))) for lv in levels]
    fam = {"norm1": [("n",), ("n1",), ("n", "n2"), ("n", "n3")],
           "norm2": [("n",), ("n", "n1")]}
    for key, groups in fam.items():
        assert sups[key] == max(p[key] for p in per_level)
        dense = max(_dense_norm(fiber(t, int(lv)), r)
                    for lv in levels for r in groups)
        # the value is the lower end of a certified interval of relative
        # width 1e-12; the upper slack covers rounding in the SVD itself
        assert dense * (1.0 - 1e-12) <= sups[key] <= dense * (1.0 + 1e-12)


def test_matricization_norm_wide_flattening_matches_dense_svd():
    t = build_tensor((2, 1, 1))
    mat = _dense_flattening(t, ("n1",))
    assert 1 < mat.shape[0] < mat.shape[1]  # more columns than rows
    dense = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert matricization_norm(t, ("n1",)) == pytest.approx(dense, rel=1e-12)


_ROW_GROUPS = (("n",), ("n1",), ("n2",), ("n3",), ("n", "n1"), ("n", "n2"),
               ("n", "n3"))


def _assert_near_dense(val, dense, label):
    assert dense * (1.0 - 1e-12) <= val <= dense * (1.0 + 1e-12), (label, val, dense)


_RANDOM_SEEDS = [1, 4, 5, 6]


def _random_tensor(seed):
    # small shells with non-zero centres and an output cap
    rng = np.random.default_rng(seed)
    shells = tuple(int(v) for v in rng.choice([1, 2], 3))
    centers = tuple(tuple(int(v) for v in rng.integers(-2, 3, 2)) for _ in range(3))
    n_cap = float(rng.uniform(2.5, 4.5))
    return build_tensor(shells, centers=centers, n_cap=n_cap)


def _reference_flatten(t, rows, level=None):
    # row and column ids as np.unique's inverse of int64 keys built from
    # the coordinates of each side's slots, led by the level index if given
    cols = tuple(s for s in ("n", "n1", "n2", "n3") if s not in rows)
    out = []
    for slots in (rows, cols):
        key = np.zeros(t.nnz, dtype=np.int64) if level is None else level
        for s in slots:
            col = getattr(t, s).astype(np.int64)
            off = int(max(np.abs(col).max(initial=0), 1)) + 1
            span = 2 * off + 1
            key = key * (span * span) + (col[:, 0] + off) * span + (col[:, 1] + off)
        out.append(np.unique(key, return_inverse=True)[1])
    return tuple(out)


def _with_levels(t):
    ranks = _slot_ranks(t)
    ranks["level"] = _lex_ids((t.levels,), t.nnz)
    return ranks


_EMPTY = dict(shells=(1, 1, 1), centers=((100, 100), (0, 0), (0, 0)), n_cap=2)
_ALL_GROUPS = _ROW_GROUPS + (("n1", "n2", "n3"), ("n", "n2", "n3"),
                             ("n", "n1", "n3"), ("n", "n1", "n2"))


@pytest.mark.parametrize("seed", _RANDOM_SEEDS + ["empty"])
def test_flatten_ids_match_unique_of_coordinate_keys(seed):
    t = build_tensor(**_EMPTY) if seed == "empty" else _random_tensor(seed)
    ranks = _with_levels(t)
    level = np.unique(t.levels, return_inverse=True)[1]
    for s in ("n", "n1", "n2", "n3"):
        modes = np.unique(getattr(t, s), axis=0, return_inverse=True)[1]
        np.testing.assert_array_equal(ranks[s], modes.ravel(), err_msg=s)
    np.testing.assert_array_equal(ranks["level"], level)
    for rows in _ALL_GROUPS:
        for per_level in (False, True):
            got = _flatten(ranks, rows, per_level)
            want = _reference_flatten(t, rows, level if per_level else None)
            for g, w in zip(got, want):
                assert g.dtype == np.int32
                np.testing.assert_array_equal(g, w, err_msg=f"{rows} {per_level}")


def test_lex_ids_match_unique_rows_of_wide_columns():
    # boxes past 2^62 are renumbered on the way, and past the table size
    # ranked by np.unique; the ids stay np.unique's inverse of the rows
    rng = np.random.default_rng(2)
    cols = [rng.integers(-2**40, 2**40, 300) // k * k for k in (2**37, 2**38, 2**36)]
    want = np.unique(np.stack(cols, axis=1), axis=0, return_inverse=True)[1]
    np.testing.assert_array_equal(_lex_ids(cols, 300), want.ravel())


def _tied_keys(rng, size, top):
    # keys drawn with ties from a few values, the largest of them `top`
    values = np.array([0, 1, 5, top // 2, top], dtype=np.int64)
    key = values[rng.integers(0, values.size, size)]
    key[:2] = (top, 0)[:size]
    return key


def _count_argsort_calls(monkeypatch):
    calls = []
    argsort = np.argsort

    def counted(*args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    return calls


@pytest.mark.parametrize("size", [0, 1, 2, 3, 1000, 4096, 4097])
def test_stable_order_matches_stable_argsort(size, monkeypatch):
    # key << b | index packs into int64 up to a key of 2^(63 - b) - 1
    # (b the bit length of size - 1); one past it takes the stable argsort
    rng = np.random.default_rng(size)
    bits = max(size - 1, 0).bit_length()
    cases = [(np.zeros(size, dtype=np.int64), False),  # all keys equal
             (_tied_keys(rng, size, 37), False),
             (_tied_keys(rng, size, (1 << (63 - bits)) - 1), False)]
    if bits:
        cases.append((_tied_keys(rng, size, 1 << (63 - bits)), True))
    for key, fallback in cases:
        want = np.argsort(key, kind="stable")
        calls = _count_argsort_calls(monkeypatch)
        order, ordered = _stable_order(key)
        monkeypatch.undo()
        np.testing.assert_array_equal(order, want)
        assert ordered.dtype == np.int64
        np.testing.assert_array_equal(ordered, key[want])
        assert calls == (["stable"] if fallback else []), (size, key.max())
    labels = rng.integers(0, 9, size).astype(np.int32)  # the block labels' dtype
    order, ordered = _stable_order(labels)
    np.testing.assert_array_equal(order, np.argsort(labels, kind="stable"))
    np.testing.assert_array_equal(ordered, np.sort(labels))


def _unique_ids(columns):
    rows = np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1)
    return np.unique(rows, axis=0, return_inverse=True)[1].ravel()


@pytest.mark.parametrize("size", [0, 1, 2, 1000])
def test_lex_ids_match_unique_on_each_path(size, monkeypatch):
    # table: a box of at most _TABLE_PER_ENTRY keys an entry; packed: a
    # longer box whose keys pack with their index; fallback: a box at the
    # 63-bit edge
    rng = np.random.default_rng(size)
    table = [(rng.integers(-1, 1, size), rng.integers(3, 5, size)),  # a 2 x 2 box
             (np.full(size, 7), np.full(size, -2))]
    if 35 <= counting._TABLE_PER_ENTRY * size:
        table.append((rng.integers(-3, 4, size), rng.integers(0, 5, size)))
    paths = {"table": table}
    if size > 1:  # a single key always fits a table of one
        edge = 1 << (63 - (size - 1).bit_length())
        paths["packed"] = [(_tied_keys(rng, size, 10**6) - 3, rng.integers(-2, 3, size)),
                           (_tied_keys(rng, size, edge - 1),)]
        paths["fallback"] = [(_tied_keys(rng, size, edge),)]
    for path, cases in paths.items():
        for columns in cases:
            sorts = []
            order = counting._stable_order
            monkeypatch.setattr(counting, "_stable_order",
                                lambda key: sorts.append(1) or order(key))
            calls = _count_argsort_calls(monkeypatch)
            got = _lex_ids(columns, size)
            monkeypatch.undo()
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, _unique_ids(columns), err_msg=path)
            assert (len(sorts), len(calls)) == {"table": (0, 0), "packed": (1, 0),
                                                "fallback": (1, 1)}[path], path


def test_norms_never_call_np_unique(monkeypatch):
    # np.unique is not used for ranking: every key is ranked on a table or
    # by the packed sort; the oracles, computed before np.unique is patched,
    # rank by np.unique and go through the same block decomposition
    triples = ((2, 2, 2), (4, 2, 2))
    tensors, want = [build_tensor(s) for s in triples], []
    for t in tensors:
        level = np.unique(t.levels, return_inverse=True)[1]
        val = {(r, lv is None): _flattening_norm(*_reference_flatten(t, r, lv))
               for r in set(_FAM1 + _FAM2) for lv in (None, level)}
        want.append([{name: max(val[r, whole] for r in fam)
                      for name, fam in (("norm1", _FAM1), ("norm2", _FAM2))}
                     for whole in (True, False)])

    def forbidden(*args, **kwargs):
        raise AssertionError("tensor norms called np.unique")

    # and the rows of verify_tensor_bounds over those two triples, from the
    # same oracle values
    eps = 0.1
    rows = []
    for t, (norms, sups), shells in zip(tensors, want, triples):
        nmax, nmed, nmin = map(float, sorted(shells, reverse=True))
        rows.append({"shells": shells, "nnz": t.nnz,
                     "ratio_norm1": norms["norm1"] / (nmax * nmed),
                     "ratio_fiber1": sups["norm1"] / (nmax ** (0.5 + eps) * nmed**0.5),
                     "ratio_norm2": norms["norm2"] / (nmax * nmin),
                     "ratio_fiber2": sups["norm2"] / (nmax ** (0.5 + eps) * nmin**0.5)})

    monkeypatch.setattr(np, "unique", forbidden)
    for t, (norms, sups) in zip(tensors, want):
        got = tensor_norms(t)
        assert {k: got[k] for k in norms} == norms
        assert fiber_norm_sup(t) == sups
    rep = verify_tensor_bounds(shell_sweeps=(triples,), eps=eps)
    assert rep["rows"] == rows


@pytest.mark.parametrize("seed", _RANDOM_SEEDS + ["empty"])
def test_build_tensor_levels_equal_resonance_phase(seed):
    t = build_tensor(**_EMPTY) if seed == "empty" else _random_tensor(seed)
    assert t.levels.dtype == np.int32
    np.testing.assert_array_equal(t.levels, resonance_phase(t.n, t.n1, t.n2, t.n3))


@pytest.mark.parametrize("seed", _RANDOM_SEEDS)
def test_lone_slot_norms_equal_block_norms_bit_for_bit(seed):
    # a lone slot on either side takes the closed form sqrt(max count);
    # it must equal the block decomposition of the full flattening exactly
    t = _random_tensor(seed)
    tensors = [t] + [fiber(t, int(lv)) for lv in np.unique(t.levels)]
    for k, tk in enumerate(tensors):
        ranks = _with_levels(tk)
        for slot in ("n", "n1", "n2", "n3"):
            rest = tuple(s for s in ("n", "n1", "n2", "n3") if s != slot)
            for rows in ((slot,), rest):
                for per_level in (True, False):
                    want = _flattening_norm(*_flatten(ranks, rows, per_level))
                    assert _norm(ranks, rows, per_level) == want, (k, rows, per_level)
                assert matricization_norm(tk, rows) == want  # the per_level=False value


def test_top_two_counts_per_key():
    # key 0: class 5 twice, 7 once; key 1: no item; keys 2 and 3: one class
    # each, so no second count; key 4: classes -1 and 4 twice each (a tie:
    # the second count equals the first)
    key = np.array([4, 0, 3, 4, 0, 2, 3, 4, 0, 3, 4])
    cls = np.array([4, 5, 9, 4, 7, 6, 9, -1, 5, 9, -1])
    first, top_cls, second = counting._top_two(key, cls, 5)
    assert first.tolist() == [2, 0, 1, 3, 2] and second.tolist() == [1, 0, 0, 0, 2]
    assert top_cls[[0, 2, 3]].tolist() == [5, 6, 9] and top_cls[4] in (-1, 4)


# the count route takes whole shells, so these have no output cap
_COUNT_SHELLS = {
    # n2 - n1 and n2 - n3 both point along +x: no entry is resonant
    "no resonance": ((1, 1, 1), ((0, 0), (10, 0), (0, 0))),
    # the {n,n1} sup is 1 + sqrt(3), from an open block at kappa = 0 above
    # every count product off resonance; with integer shells of 1-4 and
    # centres in [-2, 2]^2 no triple was found whose sup lies at kappa = 0
    "resonant sup": ((1.0, 1.0, 1.2), ((4, -4), (2, -2), (0, -4))),
    # no point has <n1 - c1> in [0.5, 1): no tensor, no pair, no key
    "empty shell": ((0.5, 1, 1), ((0, 0), (0, 0), (0, 0))),
}


def _tensor_on(points):
    """The tensor `build_tensor` gives on three point sets in lexicographic
    order: the product less the pairings, in (i1, i2, i3) order."""
    s1, s2, s3 = points
    i1, i2, i3 = np.indices((len(s1), len(s2), len(s3))).reshape(3, -1)
    n1, n2, n3 = s1[i1], s2[i2], s3[i3]
    keep = np.any(n2 != n1, axis=1) & np.any(n2 != n3, axis=1)
    n1, n2, n3 = n1[keep], n2[keep], n3[keep]
    n = n1 - n2 + n3
    return SparseTensor(n, n1, n2, n3, resonance_phase(n, n1, n2, n3).astype(np.int32))


# three point sets with a {n,n2} key block that splits: at p = n1 + n3 =
# (2, 0) the columns (n1, n3) = ((1, 0), (1, 0)) and ((2, 0), (0, 0)) leave
# out the rows n2 = (1, 0) and n2 = (0, 0), a 2 x 2 block less a permutation
_SPLIT_BLOCK = (np.array([[1, 0], [2, 0], [2, 1]]), np.array([[0, 0], [1, 0]]),
                np.array([[0, 0], [1, 0]]))
# the benchmark's triples; (4, 4, 2) holds 0.78M entries
_BENCH_TRIPLES = [(1, 1, 1), (2, 2, 2), (2, 1, 1), (4, 2, 2), (2, 2, 1), (4, 4, 2)]
# numbering the rows (n, n2) of a {n,n2} key block by ascending n2, not by
# ascending n, moves the last bit of this triple's {n,n2} norm
_PLAIN_SHELLS = {"row order": ((4, 1.2, 1.5), ((-3, -3), (3, -2), (2, -2)))}


def _count_plain_norms(points):
    """The plain norms of the count pass on three point sets."""
    return counting._count_norms(points, counting._pairings(*points))[0]


def _record_flattening_norms(monkeypatch):
    """Record (entries, resonant) per `_flattening_norm` call: the calls made
    through `_norm` take the resonant fiber, the others plain key blocks."""
    calls, resonant, flattening_norm, norm = [], [False], counting._flattening_norm, _norm

    def recorded(ri, ci):
        calls.append((ri.size, resonant[0]))
        return flattening_norm(ri, ci)

    def resonant_norm(*args):
        resonant[0] = True
        try:
            return norm(*args)
        finally:
            resonant[0] = False

    monkeypatch.setattr(counting, "_flattening_norm", recorded)
    monkeypatch.setattr(counting, "_norm", resonant_norm)
    return calls


def _count_input(case):
    """The points (S1, S2, S3) of a count-route case and its tensor."""
    if case == "split block":
        return _SPLIT_BLOCK, _tensor_on(_SPLIT_BLOCK)
    if isinstance(case, tuple):
        shells, centers = case, ((0, 0), (0, 0), (0, 0))
    elif isinstance(case, str):
        shells, centers = {**_COUNT_SHELLS, **_PLAIN_SHELLS}[case]
    else:  # shells of 1-4 and centres in [-2, 2]^2
        rng = np.random.default_rng(case)
        shells = tuple(int(v) for v in rng.integers(1, 5, 3))
        centers = tuple(tuple(int(v) for v in rng.integers(-2, 3, 2)) for _ in range(3))
    points = tuple(counting._shell(c, n_lo) for c, n_lo in zip(centers, shells))
    return points, build_tensor(shells, centers=centers)


@pytest.mark.parametrize("case", _RANDOM_SEEDS + list(_COUNT_SHELLS) + list(_PLAIN_SHELLS)
                         + _BENCH_TRIPLES + ["split block"])
def test_count_plain_norms_equal_plain_norms_bit_for_bit(case):
    # from pair counts over the shells: the values of the plain flattenings
    # of the built tensor, exactly
    points, t = _count_input(case)
    pairings = counting._pairings(*points)
    assert len(points[0]) * len(points[1]) * len(points[2]) - pairings[0].size == t.nnz
    ranks = _slot_ranks(t)
    want = {r: _norm(ranks, r) for r in dict.fromkeys(_FAM1 + _FAM2)}
    assert counting._count_norms(points, pairings)[0] == want


@pytest.mark.parametrize("case", _RANDOM_SEEDS + list(_COUNT_SHELLS))
def test_count_fiber_sups_equal_per_level_norms_bit_for_bit(case):
    # off resonance from pair counts, at kappa = 0 by the block path: the
    # values of the level-keyed flattenings of the built tensor, exactly
    points, t = _count_input(case)
    want = {r: _norm(_with_levels(t), r, per_level=True)
            for r in dict.fromkeys(_FAM1 + _FAM2)}
    sups = counting._count_norms(points, counting._pairings(*points))[1]
    assert sups == want
    if case == "no resonance":
        assert t.nnz > 0 and not np.any(t.levels == 0)
    if case == "empty shell":
        assert t.nnz == 0 and set(want.values()) == {0.0}
    if case == "resonant sup":
        sup = want[("n", "n1")]
        assert sup == _norm(_slot_ranks(fiber(t, 0)), ("n", "n1"))
        assert sup == pytest.approx(1 + np.sqrt(3.0), rel=1e-12)


@pytest.mark.parametrize("chunk", ["one point of S1", "all of S1"])
@pytest.mark.parametrize("case", _RANDOM_SEEDS + list(_COUNT_SHELLS) + _BENCH_TRIPLES)
def test_level_pass_equals_the_built_tensor(case, chunk, monkeypatch):
    # the single-slot sups of the level-keyed flattenings of the built tensor
    # exactly, and its resonant fiber entry for entry, in its order; seed 5,
    # "no resonance", "resonant sup", (2, 1, 1) and (2, 2, 1) merge the (n,
    # kappa) keys by sort, the other non-empty cases count them on a table
    points, t = _count_input(case)
    monkeypatch.setattr(counting, "_CHUNK_ENTRIES", 1 if chunk == "one point of S1" else 1 << 62)
    sup_n, sup_n1, resonant = counting._level_pass(points)
    ranks = _with_levels(t)
    assert sup_n == _norm(ranks, ("n",), per_level=True)
    assert sup_n1 == _norm(ranks, ("n1",), per_level=True)
    want = fiber(t, 0)
    for f in ("n", "n1", "n2", "n3", "levels"):
        np.testing.assert_array_equal(getattr(resonant, f), getattr(want, f), err_msg=f)
    if case == "resonant sup":
        assert resonant.nnz > 0


def test_verify_tensor_bounds_peak_below_one_tensor(monkeypatch):
    # no tensor is built: the traced peak of the sweep stays below the 20
    # bytes an entry that the (4, 4, 2) tensor alone holds, 14.9 MiB
    def forbidden(*args, **kwargs):
        raise AssertionError("a tensor or a fiber of one was built")

    for name in ("build_tensor", "fiber"):
        monkeypatch.setattr(counting, name, forbidden)
    sweeps = (((2, 2, 1), (4, 4, 2)),)
    verify_tensor_bounds(shell_sweeps=sweeps)  # first imports, outside the trace
    tracemalloc.start()
    try:
        rep = verify_tensor_bounds(shell_sweeps=sweeps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["rows"][-1]["nnz"] == 783_216
    assert peak < 20 * 783_216


def test_count_plain_norms_take_a_split_key_block(monkeypatch):
    # the first {n,n2} key block, p = (1, 0), has no entry, so the split one
    # is the first built: two entries in two rows and two columns, two
    # components of norm 1
    calls, flattening_norm = [], counting._flattening_norm

    def recorded(ri, ci):
        calls.append((ri.copy(), ci.copy()))
        return flattening_norm(ri, ci)

    monkeypatch.setattr(counting, "_flattening_norm", recorded)
    norms = _count_plain_norms(_SPLIT_BLOCK)
    ri, ci = calls[0]
    assert ri.size == 2 and len(set(ri)) == 2 and len(set(ci)) == 2
    assert norms[("n", "n2")] == 1.0


def test_count_plain_norms_iterate_an_open_winner(monkeypatch):
    # at (4, 4, 2) the largest {n,n2} blocks are all ones less pairings,
    # below their count bound sqrt(3675): the value is iterated, as the
    # tensor path iterates it
    calls = _count_graph_searches(monkeypatch)
    points = tuple(counting._shell((0, 0), n_lo) for n_lo in (4, 4, 2))
    norms = _count_plain_norms(points)
    assert norms[("n", "n2")] == 60.423505360083176 < np.sqrt(3675.0)
    assert calls


def test_count_plain_norms_prune_by_exact_line_counts(monkeypatch):
    # at (16, 2, 2) the bound sqrt(min(nnz, max row * max column)) lets 5
    # calls with 75 242 entries decide the three two-slot norms; sqrt(nnz)
    # alone built 3.56M entries in 219 calls, more than the 3.04M the
    # tensor holds (the resonant fiber's calls of the fiber sups aside)
    calls = _record_flattening_norms(monkeypatch)
    points = tuple(counting._shell((0, 0), n_lo) for n_lo in (16, 2, 2))
    _count_plain_norms(points)
    sizes = [size for size, resonant in calls if not resonant]
    assert sum(sizes) <= 100_000


def test_verify_tensor_bounds_builds_no_whole_plain_flattening(monkeypatch):
    # every `_flattening_norm` call of the plain norms takes key blocks, up
    # to the largest of them or a run of _RUN_ENTRIES entries; those of the
    # fiber sups, through `_norm`, take the resonant entries
    sweeps = (((2, 1, 1), (4, 2, 2)),)
    calls = _record_flattening_norms(monkeypatch)
    verify_tensor_bounds(shell_sweeps=sweeps)
    monkeypatch.undo()
    largest, at_zero = 0, 0
    for shells in sweeps[0]:
        t = build_tensor(shells)
        at_zero = max(at_zero, int(np.count_nonzero(t.levels == 0)))
        for other in ("n1", "n2", "n3"):  # the keys n - n1, n + n2, n - n3
            sign = 1 if other == "n2" else -1
            key = t.n.astype(np.int64) + sign * getattr(t, other)
            largest = max(largest, int(np.bincount(_lex_ids(key.T, t.nnz)).max()))
    plain = [size for size, res in calls if not res]
    assert plain and max(plain) <= max(largest, counting._RUN_ENTRIES) < 186_480
    assert max(size for size, res in calls if res) <= at_zero


@pytest.mark.parametrize("n_lo", [0, -1, 0.0, float("nan"), float("inf")])
def test_shell_sizes_not_finite_and_positive_raise(n_lo):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"shell size {n_lo!r}")):
            build_tensor((n_lo, 1, 1))
        with pytest.raises(ValueError, match="not finite and positive"):
            verify_tensor_bounds(shell_sweeps=(((1, 1, 1), (2, n_lo, 2)),))


def test_verify_tensor_bounds_refuses_an_empty_support(monkeypatch):
    # no point has <n1> in [0.5, 1): the triple is named before any tensor
    # is built or norm taken, with no warning; the shell itself stays valid
    def forbidden(*args, **kwargs):
        raise AssertionError("a tensor or a norm was taken")

    for name in ("build_tensor", "_count_norms", "_level_pass"):
        monkeypatch.setattr(counting, name, forbidden)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"\(0\.5, 1, 1\) has an empty support"):
            verify_tensor_bounds(shell_sweeps=(((0.5, 1, 1), (1, 2, 2)),))
    monkeypatch.undo()
    assert build_tensor((0.5, 1, 1)).nnz == 0


def test_verify_tensor_bounds_tests_the_support_guard_first(monkeypatch):
    # (16, 16, 16) spans 1.4e10 triples: refused before a pair is counted
    def forbidden(*args, **kwargs):
        raise AssertionError("pairs were counted past the support guard")

    for name in ("_pairings", "_count_norms", "_level_pass", "build_tensor"):
        monkeypatch.setattr(counting, name, forbidden)
    with pytest.raises(ValueError, match="support guard"):
        verify_tensor_bounds(shell_sweeps=(((16, 16, 16), (32, 32, 32)),))


def test_verify_tensor_bounds_ranks_only_the_resonant_fiber(monkeypatch):
    # slot ranks are taken once a triple, of its kappa = 0 entries alone
    sweeps = (((2, 1, 1), (4, 2, 2)),)
    sizes, slot_ranks = [], _slot_ranks

    def recorded(tensor):
        sizes.append(tensor.nnz)
        return slot_ranks(tensor)

    monkeypatch.setattr(counting, "_slot_ranks", recorded)
    verify_tensor_bounds(shell_sweeps=sweeps)
    monkeypatch.undo()
    assert sizes == [int(np.count_nonzero(build_tensor(s).levels == 0)) for s in sweeps[0]]


def test_build_tensor_peak_above_the_tensor():
    # one slot index is alive at a time: the traced peak lies 16 bytes an
    # entry above the tensor returned (32 with all three slot indices alive)
    build_tensor((4, 2, 2))
    tracemalloc.start()
    try:
        t = build_tensor((4, 2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(t, f).nbytes for f in ("n", "n1", "n2", "n3", "levels"))
    assert t.nnz == 186_480
    assert peak - kept <= 20 * t.nnz


@pytest.mark.parametrize("centers", [((40_000, 0), (0, 0), (0, 0)),
                                     ((0, 0), (0, -40_000), (0, 0)),
                                     ((20_000, 0), (-20_000, 0), (0, 0))])
def test_coordinates_beyond_int16_raise(centers):
    # the last case fits every shell but puts n = n1 - n2 + n3 near 40 000
    with pytest.raises(ValueError, match="int16"):
        build_tensor((1, 1, 1), centers=centers)


def test_build_tensor_stores_compact_dtypes():
    # n1 - n2 passes the int16 range before n3 brings n back into it
    t = build_tensor((1, 1, 1), centers=((30_000, 0), (-3_000, 1), (-3_000, 2)))
    assert t.nnz > 0
    assert all(getattr(t, s).dtype == np.int16 for s in ("n", "n1", "n2", "n3"))
    assert t.levels.dtype == np.int32
    wide = [getattr(t, s).astype(np.int64) for s in ("n", "n1", "n2", "n3")]
    np.testing.assert_array_equal(wide[0], wide[1] - wide[2] + wide[3])
    np.testing.assert_array_equal(t.levels, resonance_phase(*wide))


def test_resonance_phase_of_int16_equals_int64():
    rng = np.random.default_rng(3)
    pts = rng.integers(-32_768, 32_768, size=(4, 500, 2)).astype(np.int16)
    np.testing.assert_array_equal(resonance_phase(*pts),
                                  resonance_phase(*pts.astype(np.int64)))


@pytest.mark.parametrize("seed", _RANDOM_SEEDS)
def test_norms_of_random_shells_match_dense_svd(seed):
    # every flattening of the tensor and of each of its fibers against a
    # dense SVD
    t = _random_tensor(seed)
    assert 0 < t.nnz <= 12_000
    for rows in _ROW_GROUPS:
        _assert_near_dense(matricization_norm(t, rows), _dense_norm(t, rows), rows)
    sups = fiber_norm_sup(t)
    best = {"norm1": 0.0, "norm2": 0.0}
    for lv in np.unique(t.levels):
        f = fiber(t, int(lv))
        for rows in _ROW_GROUPS:
            _assert_near_dense(matricization_norm(f, rows), _dense_norm(f, rows),
                               (int(lv), rows))
        for key, val in best.items():
            best[key] = max(val, tensor_norms(f)[key])
    assert sups == best


def _shuffled_blocks(blocks, rng):
    """(ri, ci, owner) of the block-diagonal 0/1 matrix of the given dense
    blocks, with rows, columns and entries shuffled; owner[k] is the index
    of the block holding entry k."""
    ri, ci, owner, r0, c0 = [], [], [], 0, 0
    for k, b in enumerate(blocks):
        r, c = np.nonzero(b)
        ri.append(r + r0)
        ci.append(c + c0)
        owner.append(np.full(r.size, k))
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    ri = rng.permutation(r0)[np.concatenate(ri)]
    ci = rng.permutation(c0)[np.concatenate(ci)]
    order = rng.permutation(ri.size)
    return ri[order], ci[order], np.concatenate(owner)[order]


def _block_diagonal(blocks, rng):
    """(ri, ci) of `_shuffled_blocks`, and the norm by a dense SVD."""
    ri, ci, _ = _shuffled_blocks(blocks, rng)
    dense = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    dense[ri, ci] = 1.0
    return ri, ci, float(np.linalg.svd(dense, compute_uv=False)[0])


def test_flattening_norm_on_mixed_blocks():
    rng = np.random.default_rng(7)
    general = (rng.random((9, 11)) < 0.45).astype(float)
    general[0, :] = general[:, 0] = 1.0  # connected through row and column 0
    assert not general.all()
    row, ones = np.ones((1, 5)), np.ones((3, 4))
    assert np.sqrt(12.0) < np.linalg.svd(general, compute_uv=False)[0] < 8.0
    # a general block wins: the norm of the whole is the certified value
    ri, ci, dense = _block_diagonal([row, general, ones, row.T], rng)
    _assert_near_dense(_flattening_norm(ri, ci), dense, "general")
    # a closed-form block wins: the value is exactly sqrt(nnz)
    big = np.ones((7, 9))
    ri, ci, dense = _block_diagonal([general, big, row, ones], rng)
    assert _flattening_norm(ri, ci) == np.sqrt(63.0)
    _assert_near_dense(np.sqrt(63.0), dense, "all ones")


def test_flattening_norm_takes_each_block_in_its_given_order():
    # open blocks are grouped stably: the whole matrix gets, bit for bit, the
    # value its winning block gets alone with its entries in the same order;
    # the order moves the last bits, so shuffles of one matrix differ
    rng = np.random.default_rng(11)
    ri, ci = [], []
    for k in range(6):
        r, c = np.nonzero(rng.random((40, 50)) < 0.6)
        ri.append(r + 40 * k)
        ci.append(c + 50 * k)
    ri, ci = np.concatenate(ri), np.concatenate(ci)
    values = set()
    for _ in range(8):
        order = rng.permutation(ri.size)
        r, c = ri[order], ci[order]
        alone = [_flattening_norm(r[r // 40 == k] - 40 * k, c[r // 40 == k] - 50 * k)
                 for k in range(6)]
        whole = _flattening_norm(r, c)
        assert whole == max(alone)
        values.add(whole)
    assert len(values) > 1


def _count_graph_searches(monkeypatch, fail=False):
    """Count (or forbid) the block splits of `_flattening_norm`."""
    import scipy.sparse.csgraph as csgraph

    calls, search = [], csgraph.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        if fail:
            raise AssertionError("graph search where the count bound is attained")
        return search(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counted)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attained_count_equals_block_path_bit_for_bit(seed, monkeypatch):
    # planted closed all-ones blocks win, two of them with equal counts,
    # among a general block and a star of lower count products
    rng = np.random.default_rng(seed)
    general = (rng.random((6, 6)) < 0.5).astype(float)
    general[0, :3] = general[:3, 0] = 1.0
    assert not general.all()
    blocks = [np.ones((5, 7)), general, np.ones((7, 5)), np.ones((3, 3)),
              np.ones((1, 9))]
    ri, ci, dense = _block_diagonal([blocks[k] for k in rng.permutation(5)], rng)
    assert _attained_count(ri, ci, np.bincount(ri), np.bincount(ci)) == 35
    calls = _count_graph_searches(monkeypatch)
    got = _flattening_norm(ri, ci)
    assert calls == []
    monkeypatch.setattr(counting, "_attained_count", lambda *args: None)
    assert got == _flattening_norm(ri, ci) == np.sqrt(35.0)
    assert calls == [1]
    _assert_near_dense(got, dense, seed)


def test_attained_count_fails_on_a_pendant_of_the_heaviest_column(monkeypatch):
    # an all-ones 3 x 4 block and one more row holding a single one in its
    # column 0: that column's count product 4 * 4 is the largest, but its
    # rows and the columns of a full row do not span an all-ones submatrix
    mat = np.zeros((4, 4))
    mat[:3] = 1.0
    mat[3, 0] = 1.0
    ri, ci, dense = _block_diagonal([mat], np.random.default_rng(2))
    assert _attained_count(ri, ci, np.bincount(ri), np.bincount(ci)) is None
    calls = _count_graph_searches(monkeypatch)
    val = _flattening_norm(ri, ci)
    assert calls == [1]
    assert np.sqrt(12.0) < val < 4.0
    _assert_near_dense(val, dense, "pendant")


def test_fiber_norm_sup_needs_no_graph_search(monkeypatch):
    # off resonance every fiber block is a complete product of a row set and
    # a column set, and at (2,2,2) every level-keyed flattening attains its
    # count bound on such a block: sqrt(82) and sqrt(78), as the block path
    # gave them
    t = build_tensor((2, 2, 2))
    _count_graph_searches(monkeypatch, fail=True)
    assert fiber_norm_sup(t) == {"norm1": 9.055385138137417,
                                 "norm2": 8.831760866327848}


@pytest.mark.parametrize("lead", [False, True])
def test_open_blocks_are_gathered_as_visited(lead, monkeypatch):
    # 300 open blocks (2 x 2 less one entry) of bound sqrt(3) above their
    # norm, the golden ratio, among 3000 lone entries.  Alone, every one is
    # iterated, and the entries are scanned once per run of 1, 2, 4, ...
    # blocks, not once per block.  Led by a 6 x 6 block less one entry,
    # whose norm beats their bound, none of them is gathered.  Either way
    # the value is the largest of the blocks' own values.
    big = np.ones((6, 6))
    big[0, 0] = 0.0
    corner = big[:2, :2]
    blocks = [big] * lead + [corner] * 300 + [np.ones((1, 1))] * 3000
    ri, ci, owner = _shuffled_blocks(blocks, np.random.default_rng(5))
    alone = [_flattening_norm(np.unique(ri[owner == b], return_inverse=True)[1],
                              np.unique(ci[owner == b], return_inverse=True)[1])
             for b in range(lead + 300)]
    scans, keys = [], []
    flatnonzero, stable_order = np.flatnonzero, counting._stable_order

    def counted_scan(a):
        if np.size(a) == ri.size:
            scans.append(1)
        return flatnonzero(a)

    def counted_sort(key):
        keys.append(key.size)
        return stable_order(key)

    monkeypatch.setattr(np, "flatnonzero", counted_scan)
    monkeypatch.setattr(counting, "_stable_order", counted_sort)
    whole = _flattening_norm(ri, ci)
    monkeypatch.undo()
    assert whole == max(alone)
    if lead:
        assert len(scans) == 1
        assert sum(keys) <= 3 * 35  # the grouping and relabels of 35 entries
        _assert_near_dense(whole, np.linalg.svd(big, compute_uv=False)[0], "lead")
    else:
        assert 1 <= len(scans) <= 9  # runs of 1, 2, ..., 256 blocks cover 300
        assert whole == pytest.approx((1 + np.sqrt(5.0)) / 2, rel=1e-12)


def test_tensor_norms_where_power_iteration_stalled():
    # 3.0M non-zeros; the plain power iteration on ('n',) did not settle to
    # 1e-8 within 1000 steps, and every block of that flattening is a star
    norms = tensor_norms(build_tensor((16, 2, 2)))
    assert norms["norm1_parts"][("n",)] == np.sqrt(1260)


def test_verify_tensor_bounds_smallest_sweep():
    rep = verify_tensor_bounds(shell_sweeps=(((1, 1, 1), (2, 2, 2)),))
    assert set(rep["trend_slopes"]) == {
        "ratio_norm1",
        "ratio_fiber1",
        "ratio_norm2",
        "ratio_fiber2",
    }
    for row in rep["rows"]:
        for key in ("ratio_norm1", "ratio_fiber1", "ratio_norm2", "ratio_fiber2"):
            assert row[key] > 0.0


def test_verify_tensor_bounds_rows_equal_per_triple_norms():
    # the count pass gives the public functions' values bit for bit
    eps = 0.1
    sweeps = (((1, 1, 1), (2, 2, 2)), ((2, 1, 1), (4, 2, 2)))
    rep = verify_tensor_bounds(shell_sweeps=sweeps, eps=eps)
    assert [r["shells"] for r in rep["rows"]] == [s for sw in sweeps for s in sw]
    for row in rep["rows"]:
        t = build_tensor(row["shells"])
        norms, sups = tensor_norms(t), fiber_norm_sup(t)
        nmax, nmed, nmin = map(float, sorted(row["shells"], reverse=True))
        assert row == {
            "shells": row["shells"],
            "nnz": t.nnz,
            "ratio_norm1": norms["norm1"] / (nmax * nmed),
            "ratio_fiber1": sups["norm1"] / (nmax ** (0.5 + eps) * nmed**0.5),
            "ratio_norm2": norms["norm2"] / (nmax * nmin),
            "ratio_fiber2": sups["norm2"] / (nmax ** (0.5 + eps) * nmin**0.5),
        }


@pytest.mark.parametrize("sweeps, match", [
    ((), "no shell sweeps"),
    ((((1, 1, 1),),), r"\(\(1, 1, 1\),\)"),
    ((((1, 1, 1), (1, 1, 1)),), r"\(\(1, 1, 1\), \(1, 1, 1\)\)"),
])
def test_verify_tensor_bounds_rejects_sweeps_without_slope(sweeps, match, monkeypatch):
    # a slope needs a sweep over two distinct N_max; the check comes before
    # any tensor is built
    def forbidden(*args, **kwargs):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(counting, "build_tensor", forbidden)
    with pytest.raises(ValueError, match=match):
        verify_tensor_bounds(shell_sweeps=sweeps)
    if sweeps:  # also behind a sweep that has a slope
        with pytest.raises(ValueError, match=match):
            verify_tensor_bounds(shell_sweeps=(((1, 1, 1), (2, 2, 2)),) + sweeps)


def test_support_guard():
    with pytest.raises(ValueError):
        build_tensor((16, 16, 16))
