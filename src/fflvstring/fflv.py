"""Lattice points of the chain polytopes, fundamental chains first.

Fundamental sets are produced by direct enumeration of the defining chains
(rows strictly decreasing below i, columns strictly increasing above i in the
column order), general weights by pointwise Minkowski sums of the fundamental
sets.  Two builders run the sum, one per consumer: ``packed_sum`` returns a
set, since ``check_main``'s walk needs membership, and ``packed_points``
returns the sorted list a point document needs, merged from sorted runs
without hashing.  From the first copy of a fundamental set that less than
doubles the sum on, both hand the rest of its copies to ``_frontier``.  The
fundamental sets and the documents' sum are gated on the Weyl dimension: a
cardinality mismatch is a hard failure, never silently accepted.  The
type-A cross-check against the Dyck path inequalities fills the bounding
box depth first, with every path's slack one digit of a single packed int.
The fold between types, and its section, live in ``degenmap``.
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
    expected = weyl_dim(lt, fundamental_weight(n, i))
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
    if len(pts) != expected:
        raise VerificationError(
            "fflv.fundamental_cardinality",
            f"{lt} omega_{i}: {len(pts)} chain vectors, Weyl dimension {expected}",
        )
    return pts


@lru_cache(maxsize=None)
def fundamental_images(lt: LieType, i: int, mat, b: int) -> tuple[int, ...]:
    """The chains of P(omega_i) mapped by ``mat`` (None: the identity), each
    the sum of the columns of its labels packed at width b."""
    n = len(build_labels(lt))
    units = ([int(r == k) for r in range(n)] for k in range(n))
    columns = [pack(col, b) for col in (units if mat is None else zip(*mat))]
    return tuple(sum(c for c, x in zip(columns, p) if x) for p in fundamental_points(lt, i))


def _frontier(current: set[int], previous, step: tuple[int, ...], copies: int) -> set[int]:
    """The sum ``current`` = S_k, of which ``previous`` holds S_(k-1), plus
    ``copies`` more copies of ``step``, grown in place.  S_(k-1) + step is
    S_k, so S_(k+1) = S_k | ((S_k - S_(k-1)) + step): each copy expands only
    the points the one before added."""
    fresh = current.difference(previous)
    for _ in range(copies):
        grown = {x + y for x in fresh for y in step}
        fresh = grown.difference(current)
        current |= fresh
    return current


def packed_sum(lt: LieType, w: tuple[int, ...], start: int, mat, b: int) -> set[int]:
    """``start`` plus a_i copies of each ``fundamental_images``, one int add
    per Minkowski pair, as a set: ``check_main``'s walk needs membership.
    Each image set holds 0, the empty chain's image, so the sums of one
    coefficient's copies grow; from the first copy that less than doubles
    the sum on, ``_frontier`` adds the rest."""
    current = {start}
    for i, a in enumerate(w, start=1):
        step = fundamental_images(lt, i, mat, b) if a else ()
        for k in range(a):
            grown = {x + y for x in current for y in step}
            if k + 1 < a and 2 * len(current) > len(grown):
                current = _frontier(grown, current, step, a - k - 1)
                break
            current = grown
    return current


def _add_copy(pts: list[int], step: tuple[int, ...]) -> list[int]:
    """The sums of the strictly ascending ``pts`` and ``step``, strictly
    ascending: each image y gives the ascending run pts + y, one sort merges
    the |step| runs in O(n log |step|), and one pass drops the adjacent
    duplicates."""
    runs = [x + y for y in step for x in pts]
    runs.sort()
    return [x for x, y in zip(runs, runs[1:]) if x != y] + runs[-1:]


def packed_points(lt: LieType, weight: tuple[int, ...]) -> tuple[list[int], int, int]:
    """Lattice points for a dominant weight, packed: (sorted ints, n, b).

    The coefficient a_i contributes a_i pointwise copies of the i-th
    fundamental set, summed packed at the width ``pack_width`` gives the
    level, which bounds every coordinate.  A document needs the points in
    order, so while a copy at least doubles the sum, ``_add_copy`` merges it
    as sorted runs; from the first copy that less than doubles it on,
    ``_frontier`` adds the rest of the coefficient's copies, and one sort
    follows.  The result must have exactly the Weyl dimension many points;
    a mismatch would falsify the lattice-level Minkowski identity and raises
    immediately.
    """
    w = check_dominant(lt, weight)
    n, b = len(build_labels(lt)), pack_width(sum(w))
    pts = [0]
    for i, a in enumerate(w, start=1):
        step = fundamental_images(lt, i, None, b) if a else ()
        for k in range(a):
            grown = _add_copy(pts, step)
            if k + 1 < a and 2 * len(pts) > len(grown):
                pts = sorted(_frontier(set(grown), pts, step, a - k - 1))
                break
            pts = grown
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


def _dyck_digits(
    rank: int, width: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """One digit per monotone label path from a diagonal (l,l) to a diagonal (j,j).

    Steps move (a,b) -> (a,b+1) or (a,b) -> (a+1,b) and stay inside the
    triangle a <= b <= rank; path p, in the order of a depth-first walk from
    each (l,l), holds the digit at bits width*p on.  Per label, in
    ``build_labels`` order, the mask with a 1 in the digit of every path
    through it (a monotone path meets a label at most once); per (l, j), the
    triple (l, j, sum of the 1s of the paths from (l,l) to (j,j)).  The walk
    is a tree, so the paths through a label are the leaves below it, and each
    label's mask gains their digits as the walk returns through it.
    """
    pos = {(lab.row, lab.col): k for k, lab in enumerate(build_labels(LieType("A", rank)))}
    masks = [0] * len(pos)
    count = 0

    def walk(a: int, b: int, j: int) -> int:
        nonlocal count
        if a == b == j:
            ones = 1 << width * count
            count += 1
        else:
            ones = (walk(a, b + 1, j) if b < j else 0) | (walk(a + 1, b, j) if a < b else 0)
        masks[pos[a, b]] |= ones
        return ones

    spans = [(l, j) for l in range(1, rank + 1) for j in range(l, rank + 1)]
    ends = tuple((l, j, walk(l, l, j)) for l, j in spans)
    return tuple(masks), ends


def dyck_check_A(rank: int, weight: tuple[int, ...], pts: LatticePointSet) -> bool:
    """Cross-check a type-A point set against the path inequality system.

    True iff the set is exactly the nonnegative integer vectors that satisfy,
    for every path from (l,l) to (j,j), the bound sum over the path <=
    a_l + ... + a_j.  These lie in the bounding box, so a point outside it,
    a negative entry included, fails the check.  The box is filled depth-first,
    and a value that breaks a path through its label ends that label's range.

    Every path's slack, its bound minus its sum so far, is one digit of a
    packed register, ``width`` bits wide with a guard bit g = 2^(width-1) on
    top, so a digit holds g + slack.  A unit of label k subtracts the mask
    of k (``_dyck_digits``), and the range of k ends when a guard clears.
    The width holds: every slack is at most its bound s <= sum(w) <
    2^(width-1), so g + s < 2^width; and a digit is lowered, by one, only
    while every guard is set, from g or more, so it never drops below
    g - 1 >= 0.  No borrow ever crosses digits, and a digit reads g + slack
    exactly.
    """
    lt = LieType("A", rank)
    w = check_dominant(lt, weight)
    width = sum(w).bit_length() + 1  # sum(w): the bound of the paths from 1 to rank
    masks, ends = _dyck_digits(rank, width)
    guards = sum(ones for _, _, ones in ends) << width - 1
    start = guards + sum(sum(w[l - 1 : j]) * ones for l, j, ones in ends)

    # box bound per label: the straight path through (a,b) alone
    bounds = [sum(w[lab.row - 1 : lab.col]) for lab in build_labels(lt)]
    feasible = set()
    vec = [0] * len(bounds)

    def fill(k: int, reg: int) -> None:
        if k == len(vec):
            feasible.add(tuple(vec))
            return
        # value 0 leaves every slack as it was, and all of them are >= 0
        fill(k + 1, reg)
        for x in range(1, bounds[k] + 1):
            reg -= masks[k]
            if reg & guards != guards:
                break
            vec[k] = x
            fill(k + 1, reg)
        vec[k] = 0

    fill(0, start)
    return feasible == set(pts)
