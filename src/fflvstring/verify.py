"""End-to-end theorem pipelines with machine-readable reports.

Each report takes the packed string points of one weight out of the image
of the chain points, a Minkowski sum of packed fundamental images, and
records both cardinalities and the Weyl dimension, up to ten witnesses per
direction together with exact totals, and the affine weight twist fitted to
the zero point's pair row and the label rows of the unit chain points, which
fix the same twist as all weight pairs of the case.  Only the points are
built per weight: t_lambda and the pair row of 0 are linear in lambda (but
for the row's scale entry) and 0 lies in every P(omega_i), so the rows, the
fundamental images and the walk's step table are cached per type.  A report
stores only this evidence, no timing (the CLI times each case itself): its
verdict is derived from it, so no report can contradict itself.  Grid runs
are deterministic: results are ordered by case, independent of thread
count.  The supporting sweeps return the lines the CLI prints and a list of
their failing cases; ``SWEEPS`` names each with the size of its largest
table.  Nothing here refuses work: the CLI refuses an oversized
weight, matrix or table before it calls this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Sequence

from .crystal import letter_count, walk
from .degenmap import (
    WeightTwist,
    apply_affine,
    build_matrix,
    build_translation,
    case_twist,
    check_nonnegative,
    fold_vector,
    matrix_row_sum,
    packed_matrix,
    row_sum_bound,
    translation_and_zero_row,
)
from .errors import VerificationError
from .fflv import packed_sum, points
from .rootsys import (
    ExponentVector,
    LieType,
    check_dominant,
    dominant_weights,
    natural_dim,
    pack,
    pack_width,
    root_count,
    unpack,
)
from .wedge import commutation_tables

WITNESS_CAP = 10


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one main-theorem case."""

    family: str
    rank: int
    weight: tuple[int, ...]
    fflv_count: int
    string_count: int
    weyl_dim: int
    missing: tuple[ExponentVector, ...]
    missing_total: int
    extra: tuple[ExponentVector, ...]
    extra_total: int
    weight_twist: WeightTwist | None
    twist_witness: tuple | None

    @property
    def equal(self) -> bool:
        """T(P) = Q: no string point is missing and no image is unmatched."""
        return self.missing_total == 0 and self.extra_total == 0

    @property
    def status(self) -> str:
        """``ok`` if T(P) = Q, |P| = |Q| = dim and a weight twist fits."""
        counted = self.fflv_count == self.string_count == self.weyl_dim
        ok = self.equal and counted and self.weight_twist is not None
        return "ok" if ok else "failed"

    def to_dict(self) -> dict:
        """JSON-stable rendering of every field."""
        twist = None
        if self.weight_twist is not None:
            twist = {
                "matrix": [[str(x) for x in row] for row in self.weight_twist.matrix],
                "shift": [str(x) for x in self.weight_twist.shift],
                "unique": self.weight_twist.unique,
            }
        return {
            "family": self.family,
            "rank": self.rank,
            "weight": list(self.weight),
            "status": self.status,
            "fflv_count": self.fflv_count,
            "string_count": self.string_count,
            "weyl_dim": self.weyl_dim,
            "equal": self.equal,
            "missing_total": self.missing_total,
            "missing": [list(p) for p in self.missing],
            "extra_total": self.extra_total,
            "extra": [list(p) for p in self.extra],
            "weight_twist": twist,
        }


def check_main(
    lt: LieType,
    weight: Sequence[int],
    matrix=None,
) -> VerificationReport:
    """Compare the image of the chain points with the string points of one weight.

    ``P(lambda)`` is the Minkowski sum of a_i copies of each ``P(omega_i)``
    (Feigin-Fourier-Littelmann 2011), so for any matrix ``T(P(lambda))`` is
    t_lambda plus that sum of the cached fundamental images, packed at a
    width that holds every image and every string entry, at most the letter
    count.  An image entry is at most max_r |t_r| + level * max_r sum_k |M_rk|
    in size, as no chain coordinate exceeds the level; the row sum is kept
    per type (``matrix_row_sum``), and an override's rows are summed per case.
    The trusted matrix is gated unitriangular, so ``fflv_count = |T(P)| =
    |P|``; under an override it is the size of the identity's sum at the
    same width, which holds the letter count and so the level, the bound of
    every chain coordinate.  t_lambda is the sum of a_i t(omega_i), by
    linearity.  The walk, gated in ``crystal.walk``, hands each string to
    ``images.discard``; its gate is the case's one Weyl product on either
    path, so the report's dimension is the leaf count.  Its strings are
    distinct, so the images left are the extras and ``missing_total`` is the
    leaf count less the |T(P)| - |extras| matches; only a case with missing
    strings walks again, to name them, and only a case with extras sorts and
    decodes them.

    The twist is ``case_twist`` on the integer pair row of 0 over D =
    ``weight_denominator(lt)``, a sum of per-type rows, and the label rows of
    the unit points of ``P(lambda)``.  On the trusted matrix it is read off
    Phi, one map per type from companion coordinates to source weights,
    sliced at the support's coordinates with one column of this case; an
    override, or a type or support that Phi or its certificate does not
    cover, fits the same rows by ``scaled_twist_solve``.  Either way it is
    the twist and witness of ``weight_twist_solve`` on the ``Fraction``
    weights of every point, each entry read from one table of ``Fraction``
    values per pass.  A malformed override, not N x N, is refused first.

    ``matrix`` overrides the linear part, the package's one fault seam; the
    override path reports a negative image, never a string, as a witness
    instead of raising the nonnegativity gate.  Every case runs to the end; a
    caller that must bound the work checks ``weyl_dim`` first, as the CLI does.
    """
    w = check_dominant(lt, weight)

    trusted = matrix is None
    mat = build_matrix(lt) if trusted else tuple(map(tuple, matrix))
    if not trusted and (len(mat) != root_count(lt) or any(len(row) != len(mat) for row in mat)):
        raise ValueError(f"{lt}: matrix must be {root_count(lt)} x {root_count(lt)}")
    row_sum = matrix_row_sum(lt) if trusted else row_sum_bound(mat)
    trans, row0 = translation_and_zero_row(lt, w)
    n, level = len(trans), sum(w)
    b = pack_width(max(letter_count(w), max(map(abs, trans)) + level * row_sum))
    images = packed_sum(lt, w, pack(trans, b), mat, b)
    size, missing, extra = len(images), set(), ()
    leaves = walk(lt, w, b, images.discard)
    if leaves > size - len(images):  # a string matched no image: name each by a second walk
        walk(lt, w, b, missing.add)
        missing -= packed_sum(lt, w, pack(trans, b), mat, b)
    if images:  # an image matched no string
        extra = unpack(sorted(images), n, b)
        if trusted and any(min(v) < 0 for v in extra):
            for p in points(lt, w):
                check_nonnegative(lt, w, p, apply_affine(mat, trans, p))

    # Affine rows: T is affine for any matrix, so e_k has the row row0 - delta_k.
    # Same row space: a label in a chain's support is a chain of P(omega_i),
    # and P(lambda) sums sets holding 0, so its unit points and 0 lie in P
    # and span the rows of all of P.  Same witness: 0, then e_k by descending
    # k, is lex order, and e_k <=lex p when p_k >= 1.
    support = tuple(i for i, a in enumerate(w, start=1) if a)
    twist, witness = case_twist(lt, None if trusted else mat, support, row0)

    return VerificationReport(
        family=lt.family,
        rank=lt.rank,
        weight=w,
        fflv_count=size if trusted else len(packed_sum(lt, w, 0, None, b)),
        string_count=leaves,
        weyl_dim=leaves,
        missing=tuple(unpack(sorted(missing)[:WITNESS_CAP], n, b)) if missing else (),
        missing_total=leaves - (size - len(images)),
        extra=tuple(extra[:WITNESS_CAP]),
        extra_total=len(extra),
        weight_twist=twist,
        twist_witness=witness,
    )


def run_grid(
    cases: Sequence[tuple[LieType, int]], threads: int = 1
) -> list[VerificationReport]:
    """Run check_main over every dominant weight of every case, in order.

    ``cases`` lists (type, max coefficient sum) pairs, each checked against
    its trusted matrix; a fault is injected through ``check_main``'s
    ``matrix``.  The report list order is deterministic and independent of
    the thread count.
    """
    tasks = [
        (lt, w)
        for lt, level in cases
        for w in dominant_weights(lt.rank, level)
    ]
    if threads > 1:
        # imported here: the pool loads logging, queue and traceback
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(lambda t: check_main(*t), tasks))
    return [check_main(lt, w) for lt, w in tasks]


def all_passed(reports: Sequence[VerificationReport]) -> bool:
    return all(r.status == "ok" for r in reports)


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    """Byte-stable JSON rendering of a report list."""
    return json.dumps([r.to_dict() for r in reports], indent=2) + "\n"


def unimodular_sweep(max_rank: int) -> tuple[list[str], list[str]]:
    """Determinant, entries and triangularity of the linear part, ranks <= max_rank.

    ``packed_matrix`` gates -1 on the diagonal and 0 below it, so the
    determinant is (-1)^N and the matrix triangular, and the entry range,
    at a width where a decode passing both is exactly -R^{-1}.  So the
    entries are read off the packed rows: -1, 0 if N > 1, and -2 iff bit 1
    of a digit of some -q_k is set, the only other entry the range gate
    lets through (type C).  A rank that fails a gate prints a FAILED line.
    """
    lines, failures = [], []
    for family in ("A", "C"):
        for n in range(1, max_rank + 1):
            lt = LieType(family, n)
            try:
                rows, b = packed_matrix(lt)
            except VerificationError as exc:
                lines.append(f"{lt}: FAILED ({exc})")
                failures.append(str(lt))
                continue
            ones = ((1 << b * len(rows)) - 1) // ((1 << b) - 1)
            entries = [-2] * any(-q & ones << 1 for q in rows) + [-1] + [0] * (len(rows) > 1)
            lines.append(
                f"{lt}: det = {(-1) ** len(rows)}, entries = {entries}, triangular = True"
            )
    return lines, failures


def fold_sweep(max_rank: int) -> tuple[list[str], list[tuple[int, int]]]:
    """t(A_{2n-1}, omega_i) must fold onto t(C_n, omega_i), ranks n <= max_rank.

    The walk is linear in the weight, so ``build_translation`` at a_i =
    2^(8(i-1)) holds entry k of each t(omega_i) as balanced byte i - 1 of int
    k: a fundamental coordinate of a Weyl-orbit weight, in {-1, 0, 1} in type
    A (minuscule) and within +-2 in type C.  A fiber of ``fold_vector`` holds
    at most two A labels, so folded A less C keeps digits within +-4, and
    byte i - 1 of their OR, as two's-complement bytes, is zero iff (n, i) folds.
    """
    lines, failures = [], []
    for n in range(1, max_rank + 1):
        source, target = LieType("A", 2 * n - 1), LieType("C", n)
        lanes = [1 << 8 * d for d in range(2 * n - 1)]
        mask = (1 << 8 * n) - 1
        tops = mask // 255 << 7
        folded = fold_vector(build_translation(source, lanes), n)
        defect = 0
        for x, y in zip(folded, build_translation(target, lanes[:n])):
            defect |= (x - y + tops ^ tops) & mask
        for i in range(1, n + 1):
            ok = not defect >> 8 * (i - 1) & 255
            lines.append(f"fold t({source}, omega_{i}) == t({target}, omega_{i}): {ok}")
            if not ok:
                failures.append((n, i))
    if failures:
        lines.append(f"failing (rank, index) pairs: {failures}")
    return lines, failures


def comm_sweep(max_rank: int) -> tuple[list[str], list[tuple]]:
    """Commutation table: l, j commute iff |l - j| != 1 on every exterior power.

    Each unordered pair l < j is tested once per power, by
    ``commutation_tables``, which acts on all the powers of a rank at once
    in one packed int (digit v holds key 2v), builds the masks and bases
    once, each generator's image once and each ordered pair's product
    once, splits a pair's products into powers only where they differ,
    and keeps nothing.  That covers
    the whole table: a diagonal entry compares a product with itself, and
    the test is symmetric in the two products (equal keys, and
    r * x(v) = y(v) with r > 0 holds iff (1/r) * y(v) = x(v)).  At i = 1
    it is pointwise equality: each generator kills e_t or sends it to
    e_{t+1}, so every product sends a basis vector to 0 or to one basis
    vector with coefficient 1, which forces r = 1.  A failing pair is
    recorded as (family, m, l, j, "sim i=<i>") with l < j.
    """
    lines, failures = [], []
    for family in ("A", "C"):
        for m in range(1, max_rank + 1):
            before = len(failures)
            tables = commutation_tables(family, m)
            for l, j in combinations(range(1, m + 1), 2):
                expected = j - l != 1
                for i, table in enumerate(tables, start=1):
                    if table[l, j] != expected:
                        failures.append((family, m, l, j, f"sim i={i}"))
            status = "ok" if len(failures) == before else "FAILED"
            lines.append(f"{family}{m}: commutation table {status}")
    if failures:
        lines.append(f"failing cases: {failures[:10]}")
    return lines, failures


def comm_table_rows(m: int) -> int:
    """Rows of the exterior-power tables of the type-C generators at acting rank m.

    Type C acts on the larger module (2m against m + 1), so this bounds the
    work of ``comm_sweep`` for both families at that rank.  The sweep holds
    no rows: it packs all m powers into one int of 2^(2m) digits, digit v
    for the key 2v below 2^(2m+1), and sum_{1<=i<=m} C(2m, i) >= 4^m / 2,
    so that span is at most twice the rows of one generator over the m
    powers.  A rank holds a number of such ints linear in m (its step
    masks, bases, power masks and one-factor images) and takes a fixed
    number of big-int operations per tested pair and power, so memory
    grows as this count and work as this count times a factor linear in m.
    """
    return m * sum(comb(natural_dim("C", m), i) for i in range(1, m + 1))


# name -> (function, help text, unit, size); size(n) is the largest table the
# sweep builds at rank n, named by C_n: the matrix of C_n, the tables at acting
# rank n, or A_{2n-1}'s packed translations, a byte per fundamental weight and label
SWEEPS = {
    "unimodular": (
        unimodular_sweep,
        "determinant sweep",
        "matrix entries",
        lambda n: root_count(LieType("C", n)) ** 2,
    ),
    "fold": (
        fold_sweep,
        "translation folding sweep",
        "translation digits",
        lambda n: root_count(LieType("A", 2 * n - 1)) * (2 * n - 1),
    ),
    "comm": (
        comm_sweep,
        "commutation equivalence sweep",
        "exterior-power table rows",
        comm_table_rows,
    ),
}
