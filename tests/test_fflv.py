"""Chain point sets: fundamental chains, Minkowski sums, path cross-check."""

from itertools import product

import pytest

from fflvstring import fflv
from fflvstring.errors import VerificationError
from fflvstring.degenmap import embed_point_in_a
from fflvstring.fflv import (
    dyck_check_A,
    fundamental_points,
    packed_points,
    packed_sum,
    points,
)
from fflvstring.rootsys import (
    LieType,
    build_labels,
    column_key,
    dominant_weights,
    pack_width,
    unpack,
    weyl_dim,
)
from conftest import A1, A2, A3, A4, C2, C3, record_calls, traced_memory
from oracles import dyck_paths


def test_fundamental_index_range():
    with pytest.raises(ValueError):
        fundamental_points(A2, 3)
    with pytest.raises(ValueError):
        fundamental_points(A2, 0)


def test_fundamental_cardinality_gate_trips(monkeypatch):
    # the uncached enumeration against a dimension one too large
    monkeypatch.setattr(fflv, "weyl_dim", lambda lt, w: weyl_dim(lt, w) + 1)
    with pytest.raises(VerificationError) as info:
        fundamental_points.__wrapped__(A2, 1)
    assert info.value.gate == "fflv.fundamental_cardinality"


@pytest.mark.parametrize("family,max_rank", [("A", 4), ("C", 3)])
def test_fundamental_points_are_chains(family, max_rank):
    # support must read as pairs with rows strictly decreasing below i
    # and columns strictly increasing at or above i
    for n in range(1, max_rank + 1):
        lt = LieType(family, n)
        labels = build_labels(lt)
        for i in range(1, n + 1):
            pts = set(fundamental_points(lt, i))
            for p in fundamental_points(lt, i):
                assert set(p) <= {0, 1}
                # each label of a chain is a chain itself, so the unit points
                # of P(lambda) span it (the premise of check_main's twist fit)
                assert all(
                    tuple(int(j == k) for j in range(len(p))) in pts
                    for k, x in enumerate(p) if x
                )
                support = [lab for x, lab in zip(p, labels) if x]
                support.sort(key=lambda lab: column_key(lab, n))
                rows = [lab.row for lab in support]
                cols = [column_key(lab, n) for lab in support]
                assert rows == sorted(rows, reverse=True)
                assert len(set(rows)) == len(rows)
                assert cols == sorted(cols)
                assert len(set(cols)) == len(cols)
                if support:
                    assert rows[0] <= i <= cols[0]


def test_minkowski_cardinality_gate_trips_on_a_short_sum(monkeypatch):
    # the fundamental sets are cached first, so only the sum meets the
    # dimension one too large, and comes out one point short of it
    fundamental_points(A2, 1), fundamental_points(A2, 2)
    monkeypatch.setattr(fflv, "weyl_dim", lambda lt, w: weyl_dim(lt, w) + 1)
    with pytest.raises(VerificationError) as info:
        points(A2, (1, 1))
    assert info.value.gate == "fflv.minkowski_cardinality"


def _copy_by_copy(lt, w):
    """Each copy of each P(omega_i) added to the whole sum, as vectors."""
    current = {(0,) * len(build_labels(lt))}
    for i, a in enumerate(w, start=1):
        for _ in range(a):
            step = fundamental_points(lt, i)
            current = {tuple(x + y for x, y in zip(p, q)) for p in current for q in step}
    return current


@pytest.mark.parametrize(
    "lt,weights",
    [
        (A2, [(k, 1) for k in range(8)] + [(30, 1), (1, 30), (12, 12)]),
        (A1, [(k,) for k in range(25)]),
        (C2, list(dominant_weights(2, 3)) + [(6, 6)]),
        (A3, [(5, 0, 5)]),
    ],
    ids=["A2", "A1", "C2", "A3"],
)
def test_packed_sum_is_the_copy_by_copy_sum(lt, weights):
    # both builders, the sorted runs of the documents and the set of
    # check_main; from the copy that less than doubles the sum on, each copy
    # expands only the points the one before added
    n = len(build_labels(lt))
    for w in weights:
        expected = sorted(_copy_by_copy(lt, w))
        assert list(points(lt, w)) == expected, w
        b = pack_width(sum(w))
        assert sorted(unpack(packed_sum(lt, w, 0, None, b), n, b)) == expected, w


@pytest.mark.parametrize("lt, w", [(A2, (5, 1)), (A3, (5, 0, 5)), (C2, (5, 4))])
def test_every_copy_merges_into_a_sorted_sum(monkeypatch, lt, w):
    # each copy's runs are ascending only if the sum they add to is; each
    # weight's first coefficient ends in a frontier phase, whose sum, sorted,
    # is the first the second coefficient's copies merge into
    calls = record_calls(monkeypatch, fflv, "_add_copy")
    fronts = record_calls(monkeypatch, fflv, "_frontier")
    pts = packed_points(lt, w)[0]
    assert all(x < y for x, y in zip(pts, pts[1:]))
    for sums, _ in calls:
        assert all(x < y for x, y in zip(sums, sums[1:]))
    head = weyl_dim(lt, (w[0],) + (0,) * (lt.rank - 1))
    assert len(fronts[0][0]) == head
    assert head in [len(sums) for sums, _ in calls]


@pytest.mark.parametrize("lt, w, ratio", [(C3, (0, 2, 2), 5.5), (A4, (1, 1, 1, 1), 2.5)])
def test_builder_peak_memory_stays_near_its_result(lt, w, ratio):
    # the runs of a copy are held together until one sort merges them:
    # with the fundamental images cached, the peak read 4.63 times the
    # result at C3 (529 KB against 114 KB) and 2.07 times at A4 (99.5 KB
    # against 48 KB); the set and its sort read 2.47 and 1.92 times
    packed_points(lt, w)
    (pts, _, _), size, peak = traced_memory(packed_points, lt, w)
    assert len(pts) == weyl_dim(lt, w)
    assert peak <= ratio * size


@pytest.mark.parametrize("family,rank,level", [("A", 3, 2), ("C", 2, 1)])
def test_minkowski_monotonicity(family, rank, level):
    lt = LieType(family, rank)
    grid = list(dominant_weights(rank, level))
    # the sum is symmetric, so w1 <= w2 covers every ordered pair
    for k, w1 in enumerate(grid):
        small1 = points(lt, w1)
        for w2 in grid[k:]:
            total = tuple(a + b for a, b in zip(w1, w2))
            big = set(points(lt, total))
            small2 = points(lt, w2)
            for p in small1:
                for q in small2:
                    assert tuple(x + y for x, y in zip(p, q)) in big


def _meets_path_bounds(paths, w, vec):
    """Every path of the oracle's table sums to at most its bound."""
    return all(sum(vec[k] for k in cells) <= sum(w[i - 1 : j]) for cells, i, j in paths)


@pytest.mark.parametrize("rank", [2, 3])
def test_dyck_check_matches_brute_force_box(rank):
    # the pruned depth-first check against every vector of the bounding box
    lt = LieType("A", rank)
    labels, paths = build_labels(lt), dyck_paths(lt)
    for w in dominant_weights(rank, 3):
        bounds = [sum(w[lab.row - 1 : lab.col]) for lab in labels]
        box = set(product(*(range(b + 1) for b in bounds)))
        truth = {v for v in box if _meets_path_bounds(paths, w, v)}
        pts = list(points(lt, w))
        variants = [pts, pts[1:], pts[:-1], pts + sorted(box - truth)[:1]]
        for k in range(len(labels)):
            # one entry of the zero point or of the last point moved just off
            # the box, added to the set or put in place of the last point; a
            # negative entry meets every path bound, yet is no point
            for q in (pts[0], pts[-1]):
                p = list(q)
                p[k] = bounds[k] + 1 if k % 2 else -1
                variants += [pts + [tuple(p)], pts[:-1] + [tuple(p)]]
        for variant in variants:
            assert dyck_check_A(rank, w, tuple(variant)) == (set(variant) == truth)
        assert dyck_check_A(rank, w, tuple(sorted(truth)))


def _pushed_past_a_bound(lt, w, pts):
    """A point of the set plus one unit at a label, inside the bounding box
    and off the set: it breaks some path bound by exactly one."""
    labels = build_labels(lt)
    bounds = [sum(w[lab.row - 1 : lab.col]) for lab in labels]
    found = set(pts)
    for p in pts:
        for k in range(len(labels)):
            q = p[:k] + (p[k] + 1,) + p[k + 1 :]
            if q[k] <= bounds[k] and q not in found:
                return q
    raise AssertionError("every unit push stays in the set")


@pytest.mark.parametrize("w", [(0, 1, 0), (1, 1, 1), (1, 2, 1), (2, 3, 2), (4, 0, 4)])
def test_dyck_register_width_boundaries(w):
    # the largest path bound, sum(w), is 1, 3, 4, 7 and 8: the largest
    # bound of a digit width of the slack register (1, 3, 7) or the
    # smallest (1, 4, 8)
    pts = points(A3, w)
    pushed = _pushed_past_a_bound(A3, w, pts)
    assert not _meets_path_bounds(dyck_paths(A3), w, pushed)
    assert dyck_check_A(3, w, pts)
    assert dyck_check_A(3, w, pts + (pushed,)) is False
    assert dyck_check_A(3, w, pts[1:] + (pushed,)) is False


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_c_fundamentals_embed_into_a_fundamentals(rank):
    ltc = LieType("C", rank)
    lta = LieType("A", 2 * rank - 1)
    for i in range(1, rank + 1):
        target = set(fundamental_points(lta, i))
        for p in fundamental_points(ltc, i):
            assert embed_point_in_a(ltc, p) in target


def test_embed_rejects_type_a():
    with pytest.raises(ValueError):
        embed_point_in_a(A2, (0, 0, 0))
