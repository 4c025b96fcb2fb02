"""Lattice points of the chain polytopes, fundamental chains first.

Fundamental sets are produced by direct enumeration of the defining chains
(rows strictly decreasing below i, columns strictly increasing above i in the
column order), general weights by pointwise Minkowski sums of the fundamental
sets.  Both constructions are gated on the Weyl dimension: a cardinality
mismatch is a hard failure, never silently accepted.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import VerificationError
from .rootsys import (
    ExponentVector,
    LieType,
    RootLabel,
    build_labels,
    check_dominant,
    column_key,
    fundamental_weight,
    label_index,
    pack,
    pack_width,
    unpack,
    weyl_dim,
)

LatticePointSet = tuple[ExponentVector, ...]


@lru_cache(maxsize=None)
def fundamental_points(lt: LieType, i: int) -> LatticePointSet:
    """All 0/1 chain vectors for the i-th fundamental weight, canonically sorted.

    A chain picks pairs (row_1, col_1), (row_2, col_2), ... with
    row_1 <= i <= col_1, rows strictly decreasing and columns strictly
    increasing in the column order, every pair a valid label.
    """
    n = lt.rank
    if not 1 <= i <= n:
        raise ValueError(f"fundamental index {i} out of range for rank {n}")
    idx = label_index(lt)
    # (key, col, barred) of the columns from key i on, ascending by key
    columns = {(column_key(lab, n), lab.col, lab.barred) for lab in build_labels(lt)}
    cols = [entry for entry in sorted(columns) if entry[0] >= i]
    out: set[ExponentVector] = set()
    vec = [0] * len(idx)

    def extend(row_bound: int, col_start: int) -> None:
        out.add(tuple(vec))
        for pos in range(col_start, len(cols)):
            _, col, barred = cols[pos]
            for row in range(1, min(row_bound, col) + 1):
                k = idx[RootLabel(row, col, barred)]
                vec[k] = 1
                extend(row - 1, pos + 1)
                vec[k] = 0

    extend(i, 0)
    pts = tuple(sorted(out))
    expected = weyl_dim(lt, fundamental_weight(n, i))
    if len(pts) != expected:
        raise VerificationError(
            "fflv.fundamental_cardinality",
            f"{lt} omega_{i}: {len(pts)} chain vectors, Weyl dimension {expected}",
        )
    return pts


def packed_sum(lt: LieType, w: tuple[int, ...], start: int, columns: list[int]) -> set[int]:
    """``start`` plus a_i copies of each P(omega_i), a chain vector mapped to
    the sum of its packed ``columns``: one int add per Minkowski pair."""
    current = {start}
    for i, a in enumerate(w, start=1):
        if a:
            step = [sum(c for c, x in zip(columns, p) if x) for p in fundamental_points(lt, i)]
            for _ in range(a):
                current = {x + y for x in current for y in step}
    return current


def packed_points(lt: LieType, weight: tuple[int, ...]) -> tuple[list[int], int, int]:
    """Lattice points for a dominant weight, packed: (sorted ints, n, b).

    The coefficient a_i contributes a_i pointwise copies of the i-th
    fundamental set, summed packed at the width ``pack_width`` gives the
    level, which bounds every coordinate.  The result must have exactly the
    Weyl dimension many points; a mismatch would falsify the lattice-level
    Minkowski identity and raises immediately.
    """
    w = check_dominant(lt, weight)
    n, b = len(build_labels(lt)), pack_width(sum(w))
    units = [pack([int(r == k) for r in range(n)], b) for k in range(n)]
    pts = sorted(packed_sum(lt, w, 0, units))
    expected = weyl_dim(lt, w)
    if len(pts) != expected:
        raise VerificationError(
            "fflv.minkowski_cardinality",
            f"{lt} {w}: Minkowski sum has {len(pts)} points, Weyl dimension {expected}",
        )
    return pts, n, b


def points(lt: LieType, weight: tuple[int, ...]) -> LatticePointSet:
    """Lattice points for a dominant weight, decoded from ``packed_points``."""
    return tuple(unpack(*packed_points(lt, weight)))


@lru_cache(maxsize=None)
def dyck_paths(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All monotone label paths from a diagonal label (l,l) to a diagonal (j,j).

    Steps move (a,b) -> (a,b+1) or (a,b) -> (a+1,b) and stay inside the
    triangle a <= b <= n.
    """
    paths: list[tuple[tuple[int, int], ...]] = []

    def walk(a: int, b: int, j: int, acc: list[tuple[int, int]]) -> None:
        if a == j and b == j:
            paths.append(tuple(acc))
            return
        if b < j:
            acc.append((a, b + 1))
            walk(a, b + 1, j, acc)
            acc.pop()
        if a < b:
            acc.append((a + 1, b))
            walk(a + 1, b, j, acc)
            acc.pop()

    for l in range(1, n + 1):
        for j in range(l, n + 1):
            walk(l, l, j, [(l, l)])
    return tuple(paths)


def dyck_check_A(rank: int, weight: tuple[int, ...], pts: LatticePointSet) -> bool:
    """Cross-check a type-A point set against the path inequality system.

    True iff the set is exactly the nonnegative integer vectors that satisfy,
    for every path from (l,l) to (j,j), the bound sum over the path <=
    a_l + ... + a_j.  These lie in the bounding box, so a point outside it,
    a negative entry included, fails the check.  The box is filled depth-first,
    and a value that breaks a path through its label ends that label's range.
    Each path keeps a running slack, its bound minus its sum so far: a unit
    of label k lowers the slack of every path through k, and the range ends
    when one of them turns negative.
    """
    lt = LieType("A", rank)
    w = check_dominant(lt, weight)
    idx = label_index(lt)
    through: list[list[int]] = [[] for _ in idx]  # per label: the paths through it
    slack = []  # per path: its bound minus the sum over it so far
    for path in dyck_paths(rank):
        for a, b in path:
            through[idx[RootLabel(a, b)]].append(len(slack))
        slack.append(sum(w[path[0][0] - 1 : path[-1][1]]))

    # box bound per label: the straight path through (a,b) alone
    bounds = [sum(w[lab.row - 1 : lab.col]) for lab in build_labels(lt)]
    feasible = set()
    vec = [0] * len(bounds)

    def fill(k: int) -> None:
        if k == len(vec):
            feasible.add(tuple(vec))
            return
        mine = through[k]
        # value 0 leaves every slack as it was, and all of them are >= 0
        fill(k + 1)
        for x in range(1, bounds[k] + 1):
            vec[k] = x
            broken = False
            for p in mine:
                slack[p] -= 1
                if slack[p] < 0:
                    broken = True
            if broken:
                break
            fill(k + 1)
        for p in mine:
            slack[p] += vec[k]
        vec[k] = 0

    fill(0)
    return feasible == set(pts)


def embed_point_in_a(lt: LieType, p: ExponentVector) -> ExponentVector:
    """Re-index a type-C exponent vector into H(A_{2n-1}) coordinates.

    Every column goes to its column key, so barred columns land above n.
    """
    if lt.family != "C":
        raise ValueError("only type-C points embed")
    n = lt.rank
    target = LieType("A", 2 * n - 1)
    out = [0] * len(build_labels(target))
    tgt_idx = label_index(target)
    for x, lab in zip(p, build_labels(lt)):
        if x:
            out[tgt_idx[RootLabel(lab.row, column_key(lab, n))]] = x
    return tuple(out)
