"""The affine lattice map between the two point families.

T(p) = R^{-1}(c(lifted weight) - p), one integer walk along the reduced word
for both families: R is Littelmann's slack matrix of the word,
unitriangular, and c_k = <lifted weight, alpha_{i_k}^vee>.  Its linear part
-R^{-1} is upper triangular with -1 on the diagonal, so unimodular; its
translation part is linear in the dominant weight, so a pipeline sums
per-type rows of the omega_i (``fundamental_rows``) for it and for the pair
row of 0 of the twist, whose only other term is D in its scale entry.  The
linear part is one walk too, on packed ints: with p_k = 2^(b*(N-1-k)) the
walk returns row k of -R^{-1} as one int of b-bit balanced digits, gated
(``packed_matrix``) and decoded by ``rootsys.unpack``, the one decoder of
packed digits, at the width ``pack_width`` gives 2 + 2*N*max|a_ij|, which
makes a decode that passes the gates exactly -R^{-1} for any word and any
tridiagonal Cartan matrix.  The image of one point, and each t(omega_i), is
the walk itself, which decodes no matrix.  This module also houses the fold
of coordinates from a special-linear rank 2m-1 onto a symplectic rank m
(``fold_index``), its fiber sum (``fold_vector``) and its section
(``embed_point_in_a``), and the exact affine solver for the weight twist.
The solver reduces every weight pair against a row basis of at most 2n rows
in one integer elimination over all source coordinates; its answer is the
free-variables-zero solution of the full system, the same as solving every
coordinate over every pair, because the reduced row echelon form of a
consistent system depends only on its row space.  Its rows are integer
weight pairs over one denominator D: the pipeline joins the zero row of a
case, over ``weight_denominator(lt)``, to a cached basis of per-label rows,
and ``weight_twist_solve`` scales ``Fraction`` pairs by the lcm of their
denominators.  ``Fraction`` appears only where the twist or a witness is
read off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import VerificationError
from .fflv import fundamental_points
from .rootsys import (
    ExponentVector,
    LieType,
    RootLabel,
    base_weights,
    build_labels,
    cartan_matrix,
    check_dominant,
    fundamental_weight,
    letter_histogram,
    lifted_coeffs,
    pack_width,
    reduced_word,
    root_expansion,
    unpack,
    weight_denominator,
)


@lru_cache(maxsize=None)
def _simple_roots(family: str, rank: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (j, <alpha_i, alpha_j^vee>) of each alpha_i in fundamental
    coordinates: column i of the Cartan matrix (its row is wrong in type C).
    The Dynkin diagrams of A and C are paths, so only the band j = i - 1,
    i, i + 1 of the column is read."""
    m = cartan_matrix(family, rank)
    return tuple(
        tuple((j, m[j][i]) for j in range(max(i - 1, 0), min(i + 2, rank)) if m[j][i])
        for i in range(rank)
    )


def _walk(lt: LieType, nu: Sequence[int], p: Sequence[int]) -> list[int]:
    """q = R^{-1}(c(nu) - p), one pass along the word.

    Runs right to left with a companion weight nu in fundamental coordinates:
    q_k = nu[i_k] - p_k, then q_k * alpha_{i_k} leaves nu.
    """
    word = reduced_word(lt)
    roots = _simple_roots(lt.family, lt.target_rank)
    nu = list(nu)
    q = [0] * len(word)
    for k in reversed(range(len(word))):
        i = word[k] - 1
        x = q[k] = nu[i] - p[k]
        if x:
            for j, e in roots[i]:
                nu[j] -= x * e
    return q


@lru_cache(maxsize=None)
def build_matrix(lt: LieType) -> tuple[tuple[int, ...], ...]:
    """-R^{-1} in the descending label basis: ``packed_matrix``, decoded."""
    rows, b = packed_matrix(lt)
    return tuple(unpack(rows, len(rows), b))


@lru_cache(maxsize=None)
def matrix_row_sum(lt: LieType) -> int:
    """``row_sum_bound`` of ``build_matrix(lt)``, kept per type: a grid reads it
    once per case, and hashing the type costs less than the N^2 sums."""
    return row_sum_bound(build_matrix(lt))


def row_sum_bound(mat: Sequence[Sequence[int]]) -> int:
    """max_r sum_k |M_rk|: times the level, it bounds every |(M p)_r| on P(lambda),
    whose entries are at most the level."""
    return max(sum(map(abs, row)) for row in mat)


def packed_matrix(lt: LieType) -> tuple[tuple[int, ...], int]:
    """The rows of -R^{-1}, packed, and their digit width b, both gates passed.

    The walk with nu = 0 is linear in p and q = -R^{-1} p, so one walk with
    p_k = 2^(b*(N-1-k)) returns every row at once: q_k is row k packed as in
    ``rootsys.pack``, entry (k, j) its balanced digit j.  Gated on the packed
    rows: q_k lies in the band that digit -1 at k with zeros above it allows,
    |q_k + p_k| < p_k / 2, so -1 on the diagonal and 0 below, unimodular and
    injective (``degenmap.unitriangular``); and the digits of -q_k, read with
    masks, lie in {0, 1} for family A and {0, 1, 2} for C
    (``degenmap.entry_range``).

    The width holds for any word and any tridiagonal Cartan matrix (a_ij),
    the band that ``_simple_roots`` reads: b is ``pack_width`` of
    2 + 2*N*max|a_ij|, so 2^(b-1) > 2 + 2*N*max|a_ij|.  R is unitriangular
    with entries a_ij above the diagonal, and R q = -p.  For decoded digits
    d that pass both gates, each digit of R d is at most 2 + (N-1)*max|a_ij|*2 in
    size, below 2^(b-1), where balanced digits are unique; so R d = -I digit
    by digit, and d is exactly -R^{-1}.
    """
    size, m = len(reduced_word(lt)), lt.target_rank
    top = max(max(map(abs, row)) for row in cartan_matrix(lt.family, m))
    b = pack_width(2 + 2 * size * top)
    places = [1 << (b * r) for r in reversed(range(size))]
    rows = tuple(_walk(lt, [0] * m, places))
    if any(2 * abs(q + p) >= p for q, p in zip(rows, places)):
        raise VerificationError("degenmap.unitriangular", f"{lt}: not -1 on the diagonal, 0 below")
    ones = sum(places)
    keep = ones if lt.family == "A" else 3 * ones
    if any(-q & ~keep or -q & -q >> 1 & ones for q in rows):
        allowed = {0, -1} if lt.family == "A" else {0, -1, -2}
        bad = set().union(*unpack(rows, size, b)) - allowed
        raise VerificationError(
            "degenmap.entry_range", f"{lt}: entries {sorted(bad)} outside {sorted(allowed)}"
        )
    return rows, b


def build_translation(lt: LieType, weight: Sequence[int]) -> ExponentVector:
    """R^{-1} c(lifted weight): the walk with nu the lifted weight and p = 0.

    q_k is the string of the extremal element,
    <s_{i_{k+1}} ... s_{i_N} lifted weight, alpha_{i_k}^vee>."""
    return tuple(_walk(lt, lifted_coeffs(lt, weight), [0] * len(reduced_word(lt))))


@lru_cache(maxsize=None)
def fundamental_rows(lt: LieType) -> tuple[tuple[int, ...], ...]:
    """The scale row, D = ``weight_denominator(lt)`` in the scale entry, then per
    i the walk t(omega_i) and ``[D*lifted omega_i - D*hist(t(omega_i)), 0 | D*omega_i]``."""
    d, n, size = weight_denominator(lt), lt.rank, len(reduced_word(lt))
    rows = [(0,) * (size + lt.target_rank) + (d,) + (0,) * n]
    for omega in (fundamental_weight(n, i) for i in range(1, n + 1)):
        t, (src, tgt) = build_translation(lt, omega), base_weights(lt, omega)
        rows.append((*t, *(y - d * x for y, x in zip(tgt, letter_histogram(lt, t))), 0, *src))
    return tuple(rows)


def translation_and_zero_row(lt: LieType, w: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """t_lambda and the pair row of 0 of a checked weight, without a walk: both
    are linear in the weight but for the scale entry D of the row, so they are
    the scale row plus a_i times the row of omega_i (``fundamental_rows``)."""
    rows, size = fundamental_rows(lt), len(reduced_word(lt))
    out = list(rows[0])
    for a, v in zip(w, rows[1:]):
        if a:
            out = [x + a * y for x, y in zip(out, v)]
    return out[:size], out[size:]


def apply_affine(
    matrix: Sequence[Sequence[int]], translation: Sequence[int], p: Sequence[int]
) -> ExponentVector:
    """translation + matrix * p over the integers.

    Only the support of p is walked: a chain point has few nonzero entries,
    and for each one the nonzero entries of its matrix column are added.
    """
    out = list(translation)
    for k, x in enumerate(p):
        if x:
            for r, row in enumerate(matrix):
                e = row[k]
                if e:
                    out[r] += e * x
    return tuple(out)


def apply_T(lt: LieType, weight, p: Sequence[int]) -> ExponentVector:
    """Image of a chain point under the affine map for this weight: the walk
    with nu the lifted weight, ``build_translation`` at p = 0.

    The image of a chain point lies in the nonnegative orthant, so a
    negative entry is a hard failure (``check_nonnegative``); the map of an
    arbitrary vector is ``apply_affine`` on the matrix and translation.
    """
    nu, size = lifted_coeffs(lt, weight), len(reduced_word(lt))
    if len(p) != size:
        raise ValueError(f"exponent vector must have length {size}")
    image = tuple(_walk(lt, nu, p))
    check_nonnegative(lt, weight, p, image)
    return image


def check_nonnegative(lt: LieType, weight, p: Sequence[int], image) -> None:
    """Gate: the image of a verified chain point lies in the nonnegative orthant."""
    if min(image) < 0:
        raise VerificationError(
            "degenmap.nonnegative_image",
            f"{lt} {tuple(weight)}: image {image} of chain point {tuple(p)} "
            "has a negative entry",
        )


def fold_label(row: int, col: int, m: int) -> RootLabel:
    """Fold a label of H(A_{2m-1}) onto H(C_m).

    Labels with row + col <= 2m keep their coordinates (columns above m
    read as barred columns 2m - col); the rest reflect to
    (2m - col, 2m - row).
    """
    if not 1 <= row <= col <= 2 * m - 1:
        raise ValueError(f"({row},{col}) is not a label of H(A_{2 * m - 1})")
    if row + col > 2 * m:
        row, col = 2 * m - col, 2 * m - row
    if col <= m:
        return RootLabel(row, col)
    return RootLabel(row, 2 * m - col, True)


def fold_index(m: int) -> tuple[int, ...]:
    """Per label of H(A_{2m-1}), the index of its fold (``fold_label``) in H(C_m).

    A label of H(C_m) is fixed by its row and column key, and those pairs
    are exactly the labels (row, col) of H(A_{2m-1}) with row + col <= 2m.
    Both label orders sort by descending column (key), then by row, so
    H(C_m) lists these in their order in H(A_{2m-1}).  A label with
    row + col > 2m first reflects to (2m - col, 2m - row).
    """
    labels = [(lab.row, lab.col) for lab in build_labels(LieType("A", 2 * m - 1))]
    pos = {rc: k for k, rc in enumerate(rc for rc in labels if sum(rc) <= 2 * m)}
    return tuple(pos[(r, c) if r + c <= 2 * m else (2 * m - c, 2 * m - r)] for r, c in labels)


def embed_point_in_a(lt: LieType, p: Sequence[int]) -> ExponentVector:
    """A type-C exponent vector in H(A_{2m-1}) coordinates, the section of
    ``fold_index``: label k gets ``p[fold_index(m)[k]]`` if row + col <= 2m,
    the one label of its fiber not reflected, else 0."""
    if lt.family != "C":
        raise ValueError("only type-C points embed")
    m = lt.rank
    labels = build_labels(LieType("A", 2 * m - 1))
    return tuple(p[k] if lab.row + lab.col <= 2 * m else 0 for lab, k in zip(labels, fold_index(m)))


def fold_vector(vec: Sequence[int], m: int) -> ExponentVector:
    """Fold a dense H(A_{2m-1}) exponent vector onto H(C_m), summing fibers."""
    index = fold_index(m)
    if len(vec) != len(index):
        raise ValueError(f"vector must have length {len(index)}")
    out = [0] * m * m  # H(C_m) has m^2 labels
    for x, k in zip(vec, index):
        if x:
            out[k] += x
    return tuple(out)


@dataclass(frozen=True)
class WeightTwist:
    """Affine restriction from companion weights to source weights.

    The companion torus has rank 2n-1 and refines the rank-n source torus,
    so the weight of a mapped point determines the source weight of its
    preimage: source = matrix * companion + shift, exactly.  The reverse
    direction is not a function of the source weight whenever a weight
    multiplicity exceeds one.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    shift: tuple[Fraction, ...]
    unique: bool


def weight_twist_solve(lt: LieType, weight, pairs):
    """One affine map fitting every (source weight, companion weight) pair.

    The distinct ``Fraction`` pairs are scaled to integers by the lcm D of
    their denominators and fitted by ``scaled_twist_solve``.  Returns
    ``(twist, None)``, or ``(None, witness)`` where the witness is the first
    pair that breaks consistency of the lowest inconsistent source
    coordinate, with the values it was given.
    """
    check_dominant(lt, weight)
    uniq = dict.fromkeys((tuple(s), tuple(t)) for s, t in pairs)
    scale = lcm(*{x.denominator for src, tgt in uniq for x in src + tgt})
    return scaled_twist_solve(
        lt, scale, [(_scaled(s, scale), _scaled(t, scale)) for s, t in uniq]
    )


def _scaled(v, scale: int) -> tuple[int, ...]:
    """scale * v as integers; scale is a multiple of every denominator of v."""
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def scaled_twist_solve(lt: LieType, scale: int, pairs):
    """The twist fitting the integer pairs ``(D*source, D*companion)``, D = scale.

    Solves twist * companion_weight + shift = source_weight for all pairs and
    all n source coordinates in one exact elimination, ``_eliminate``, which
    ``support_twist_solve`` shares with a precomputed basis.  Each pair gives
    the augmented row ``[D*companion, D | D*source]``, cleared in every pivot
    column of the basis.  A row still nonzero in a companion or scale
    column joins the basis at the first such column, made primitive and
    cleared out of the other basis rows, so the basis of at most m+1 rows
    stays in reduced echelon form.  Any other row is dependent, and
    consistent in a source coordinate iff its reduced row is zero there.

    The twist is read off the basis with free variables set to zero.
    Scaling a row by a nonzero factor leaves its row space, its dependence
    and its consistency alone, joined rows are made primitive, and the
    reduced row echelon form of a consistent system depends only on its row
    space, which the basis rows span; so this is exactly the
    free-variables-zero solution of the full system, coordinate by
    coordinate, for any D.  ``unique`` holds iff the basis has m+1 rows.

    Returns ``(twist, None)``, or ``(None, witness)`` for the first pair
    whose row breaks consistency of the lowest inconsistent source
    coordinate, read off as a ``(source, companion)`` pair of ``Fraction``s.
    It is found in the same pass: until a coordinate breaks, the basis
    spans every earlier row in the companion part and in that coordinate
    (each dependent row reduced to zero there), so the first dependent row
    that reduces to a nonzero entry in it is the first row whose prefix of
    the system is inconsistent.
    """
    if not pairs:
        raise ValueError("at least one weight pair is required")
    basis: dict[int, list[int]] = {}
    rows = ((pair, [*pair[1], scale, *pair[0]]) for pair in pairs)
    return _read_off(lt, scale, basis, _eliminate(lt.target_rank, rows, basis))


@lru_cache(maxsize=None)
def label_rows(lt: LieType, mat: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """delta_k = [D*hist(column k of mat), 0 | D*alpha_k] per label k, D =
    ``weight_denominator(lt)``: T and the weights are affine, so for every
    weight the pair row of e_k is the pair row of 0 minus delta_k."""
    d = weight_denominator(lt)
    return tuple(
        (*(d * x for x in letter_histogram(lt, col)), 0, *(d * x for x in root_expansion(lt, lab)))
        for col, lab in zip(zip(*mat), build_labels(lt))
    )


@lru_cache(maxsize=None)
def support_basis(lt: LieType, mat, support: tuple[int, ...]):
    """The label rows of the unit points of each ``P(omega_i)``, i in support,
    eliminated by descending label index: the basis as (pivot, row) pairs,
    and the label first breaking the lowest broken source coordinate, or None."""
    units = {p.index(1) for i in support for p in fundamental_points(lt, i) if sum(p) == 1}
    rows, basis = label_rows(lt, mat), {}
    broken = _eliminate(lt.target_rank, ((k, rows[k]) for k in sorted(units, reverse=True)), basis)
    return tuple((c, tuple(b)) for c, b in basis.items()), broken


def support_twist_solve(lt: LieType, mat, support: tuple[int, ...], row0: Sequence[int]):
    """``scaled_twist_solve`` on the pair row ``row0`` of 0, then ``row0 - delta_k``
    for the units k of the support.  Both lists span the rows ``row0`` and
    ``delta_k``, and only ``row0`` is nonzero in the scale column, so a prefix
    of the pairs is inconsistent in a source coordinate iff that prefix of
    the ``delta_k`` is: ``support_basis`` names the witness, read off this
    weight's row.  Otherwise ``row0`` joins a copy of the basis."""
    basis, broken = support_basis(lt, mat, support)
    m = lt.target_rank
    if broken is not None:
        row = [x - y for x, y in zip(row0, label_rows(lt, mat)[broken])]
        return _read_off(lt, row0[m], {}, (row[m + 1 :], row[:m]))
    basis = dict(basis)
    _eliminate(m, [(None, row0)], basis)
    return _read_off(lt, row0[m], basis, None)


def _eliminate(m: int, rows, basis: dict):
    """Reduce each ``(key, row)`` into ``basis`` (pivot -> row, zero at the
    other pivots) in place; return the key of the first dependent row left
    nonzero in the lowest source coordinate any is left nonzero in, or None."""
    breaks = {}
    for key, row in rows:
        for c, b in basis.items():
            if row[c]:
                row = _clear(row, b, c)
        pivot = next((c for c in range(m + 1) if row[c]), None)
        if pivot is None:
            for r, x in enumerate(row[m + 1 :]):
                if x:
                    breaks.setdefault(r, key)
            continue
        row = _primitive(row)
        for c, b in basis.items():
            if b[pivot]:
                basis[c] = _primitive(_clear(b, row, pivot))
        basis[pivot] = row
    return breaks[min(breaks)] if breaks else None


_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _fraction(numerator: int, denominator: int) -> Fraction:
    """The ``Fraction`` numerator/denominator, kept per pass: the twists of a
    type share most of their entries, so a cold pass over the benchmark's
    85-case grid reads 694 entries off but builds 105."""
    return Fraction(numerator, denominator)


def _read_off(lt: LieType, scale: int, basis: dict, witness):
    """``(twist, None)`` from a consistent basis with free variables zero, or
    ``(None, witness)`` with the integer witness pair over scale, each entry
    from the ``_fraction`` table."""
    if witness is not None:
        return None, tuple(tuple(_fraction(x, scale) for x in v) for v in witness)
    n, m = lt.rank, lt.target_rank
    sol = [[_ZERO] * (m + 1) for _ in range(n)]
    for c, b in basis.items():
        for r in range(n):
            if b[m + 1 + r]:
                sol[r][c] = _fraction(b[m + 1 + r], b[c])
    matrix = tuple(tuple(row[:m]) for row in sol)
    shift = tuple(row[m] for row in sol)
    return WeightTwist(matrix, shift, len(basis) == m + 1), None


def _clear(row: list[int], b: list[int], c: int) -> list[int]:
    """The integer combination of ``row`` and ``b`` that is zero in column c."""
    f, g = row[c], b[c]
    return [g * x - f * y for x, y in zip(row, b)]


def _primitive(row: list[int]) -> list[int]:
    """A nonzero integer row divided by the gcd of its entries."""
    d = gcd(*row)
    return [x // d for x in row]
