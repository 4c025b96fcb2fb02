"""Root-system bookkeeping shared by every other module.

All lattice points in this package are indexed by the set H(X_n) of
positive-root labels of a rank-n algebra of family A or C.  This module owns
those labels and their total order, the distinguished reduced word in the
rank-(2n-1) companion algebra whose letters the labels are aligned with,
exact weight arithmetic in both weight lattices, and the Weyl dimension
formula used as the cardinality oracle throughout.

Conventions:

* A label is a pair (row, col); ``barred`` marks the symplectic columns that
  only family C has.  Columns are ordered 1 < 2 < ... < n = n-bar <
  (n-1)-bar < ... < 1-bar, realized by the integer key ``col`` resp.
  ``2n - col`` (so the key of n-bar coincides with the key of n).
* Labels are ordered column-first, with rows compared in reverse inside a
  column.  ``build_labels`` returns the descending chain; that sequence is
  the basis all dense vectors and matrices in this package are written in.
* Weights live in simple-root coordinates as integer numerators over one
  fixed denominator.  Every weight of A_n has a denominator dividing n+1,
  every weight of C_n one dividing 2; ``weight_denominator(lt)`` is the
  common one of a source algebra and its companion, lcm(n+1, 2n) for A_n
  and 2 for C_n.  The ``Fraction`` weights ``fflv_weight`` and
  ``string_weight`` are views of these numerators.  Dominant weights
  enter as tuples of nonnegative fundamental-weight coefficients, which
  ``weight_numerators`` turns into numerators by one closed form per
  family over the whole weight, gated by the Cartan matrix.  The weight
  of a point is its base weight minus an integer delta: ``root_delta`` of
  a chain point, ``letter_histogram`` of a string point.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import VerificationError

WeightVector = tuple[Fraction, ...]
ExponentVector = tuple[int, ...]


def natural_dim(family: str, rank: int) -> int:
    """Dimension of the natural module of a rank-``rank`` algebra of the family."""
    return rank + 1 if family == "A" else 2 * rank


def fundamental_weight(rank: int, i: int) -> tuple[int, ...]:
    """Fundamental coefficients of omega_i: the i-th unit vector of length rank."""
    if type(rank) is not int or type(i) is not int or not 1 <= i <= rank:
        raise ValueError(f"fundamental index {i!r} out of range for rank {rank!r}")
    return tuple(1 if k == i - 1 else 0 for k in range(rank))


@dataclass(frozen=True)
class LieType:
    """Family (A or C) and rank of the algebra the lattice points belong to."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in ("A", "C"):
            raise ValueError(f"unknown family {self.family!r}")
        if type(self.rank) is not int or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")

    @property
    def target_rank(self) -> int:
        """Rank 2n-1 of the companion algebra carrying the Demazure module."""
        return 2 * self.rank - 1

    @property
    def target_dim(self) -> int:
        """Dimension of the natural module the companion algebra acts on."""
        return natural_dim(self.family, self.target_rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootLabel:
    """Index (row, col) of a positive root; ``barred`` marks column col-bar."""

    row: int
    col: int
    barred: bool = False

    def __str__(self) -> str:
        return f"({self.row},{self.col}{'~' if self.barred else ''})"


def column_key(label: RootLabel, n: int) -> int:
    """Position of the label's column in the order 1 < ... < n = n-bar < ... < 1-bar."""
    return 2 * n - label.col if label.barred else label.col


def root_count(lt: LieType) -> int:
    """Number N of labels of H(X_n): n(n+1)/2 for A_n, n^2 for C_n."""
    n = lt.rank
    return n * (n + 1) // 2 if lt.family == "A" else n * n


@lru_cache(maxsize=None)
def build_labels(lt: LieType) -> tuple[RootLabel, ...]:
    """All labels of H(X_n) in descending order (high columns first, rows ascending).

    The column keys descend through the barred columns 1-bar ... (n-1)-bar
    (keys 2n-1 ... n+1, family C only), then the unbarred columns n ... 1;
    so the labels are written in that order, with no sort.
    """
    n = lt.rank
    labels = []
    if lt.family == "C":
        labels = [RootLabel(r, j, True) for j in range(1, n) for r in range(1, j + 1)]
    labels += [RootLabel(r, j) for j in range(n, 0, -1) for r in range(1, j + 1)]
    expected = root_count(lt)
    if len(labels) != expected:
        raise VerificationError(
            "rootsys.label_count", f"{lt}: {len(labels)} labels, expected {expected}"
        )
    return tuple(labels)


@lru_cache(maxsize=None)
def label_index(lt: LieType) -> Mapping[RootLabel, int]:
    """Label -> position in the descending chain of ``build_labels``."""
    return {lab: k for k, lab in enumerate(build_labels(lt))}


def vector_from_labels(lt: LieType, assignment: Mapping[RootLabel, int]) -> ExponentVector:
    """Dense exponent vector from a {label: coefficient} mapping."""
    idx = label_index(lt)
    out = [0] * len(idx)
    for lab, c in assignment.items():
        if lab not in idx:
            raise ValueError(f"label {lab} is not in H({lt})")
        out[idx[lab]] = c
    return tuple(out)


@lru_cache(maxsize=None)
def reduced_word(lt: LieType) -> tuple[int, ...]:
    """The distinguished reduced word in the rank-(2n-1) companion Weyl group.

    Family A uses the concatenation of the blocks s_j s_{j+1} ... s_{2j-1}
    for j = n down to 1; family C prepends the blocks s_j ... s_{2n-1}
    for j = 2n-1 down to n+1.  Position k of the word carries the k-th label
    of the descending chain, whose letter is row + column_key - 1.
    """
    n = lt.rank
    word: list[int] = []
    if lt.family == "C":
        for j in range(2 * n - 1, n, -1):
            word.extend(range(j, 2 * n))
    for j in range(n, 0, -1):
        word.extend(range(j, 2 * j))
    return tuple(word)


def root_expansion(lt: LieType, label: RootLabel) -> tuple[int, ...]:
    """Coefficients of the positive root alpha_{row,col} over the simple roots."""
    n = lt.rank
    r, j = label.row, label.col
    coeff = [0] * n
    if not label.barred:
        for c in range(r, j + 1):
            coeff[c - 1] = 1
    else:
        # alpha_r + ... + alpha_{j-1} + 2(alpha_j + ... + alpha_{n-1}) + alpha_n
        for c in range(r, j):
            coeff[c - 1] = 1
        for c in range(j, n):
            coeff[c - 1] = 2
        coeff[n - 1] = 1
    return tuple(coeff)


@lru_cache(maxsize=None)
def cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix M[i][j] = <alpha_{j+1}, alpha_{i+1}^vee> (0-based)."""
    m = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        m[i][i] = 2
        if i > 0:
            m[i][i - 1] = -1
        if i < rank - 1:
            m[i][i + 1] = -1
    if family == "C" and rank >= 2:
        m[rank - 2][rank - 1] = -2
    return tuple(tuple(row) for row in m)


def fundamental_denominator(family: str, rank: int) -> int:
    """A common denominator of the fundamental weights in simple-root
    coordinates: rank + 1 for family A, 2 for family C."""
    return rank + 1 if family == "A" else 2


def weight_denominator(lt: LieType) -> int:
    """D(lt), a common denominator of the source and the companion weights:
    lcm(n+1, 2n) for A_n, 2 for C_n."""
    return lcm(
        fundamental_denominator(lt.family, lt.rank),
        fundamental_denominator(lt.family, lt.target_rank),
    )


def weight_numerators(family: str, rank: int, coeffs: Sequence[int], scale: int) -> ExponentVector:
    """scale * sum_k coeffs[k-1] * omega_k in simple-root coordinates.

    With d = ``fundamental_denominator``, a divisor of ``scale``, the closed
    forms are (d omega_k)_i = min(i,k)(n+1-max(i,k)) for family A, and
    2 min(i,k) for i < n, k for i = n for family C.  The gate checks the
    defining property: the Cartan matrix sends the result to scale * coeffs.
    """
    if len(coeffs) != rank:
        raise ValueError("coefficient vector length must equal the rank")
    n, f = rank, scale // fundamental_denominator(family, rank)
    terms = [(k, a * f) for k, a in enumerate(coeffs, start=1) if a]
    a_type = family == "A"
    w = tuple(
        sum(
            c * (min(i, k) * (n + 1 - max(i, k)) if a_type else 2 * min(i, k) if i < n else k)
            for k, c in terms
        )
        for i in range(1, n + 1)
    )
    cartan = cartan_matrix(family, rank)
    if any(sum(map(mul, row, w)) != scale * a for row, a in zip(cartan, coeffs)):
        raise VerificationError(
            "rootsys.cartan_invertible",
            f"{family}{rank}: the Cartan matrix does not send {w} to {scale} * {tuple(coeffs)}",
        )
    return w


def check_dominant(lt: LieType, weight: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalize a dominant weight given by fundamental coefficients."""
    w = tuple(weight)
    if len(w) != lt.rank:
        raise ValueError(f"weight must have {lt.rank} coefficients, got {len(w)}")
    if any(type(a) is not int or a < 0 for a in w):
        raise ValueError(f"dominant weight coefficients must be nonnegative ints, got {w}")
    return w


def lifted_coeffs(lt: LieType, weight: Sequence[int]) -> tuple[int, ...]:
    """Fundamental coefficients of the lifted weight in the rank-(2n-1) lattice.

    Coefficient a_i of omega_i moves to position 2i-1.
    """
    w = check_dominant(lt, weight)
    out = [0] * lt.target_rank
    for i, a in enumerate(w, start=1):
        out[2 * i - 2] = a
    return tuple(out)


def weyl_dim(lt: LieType, weight: Sequence[int]) -> int:
    """Dimension of the rank-n simple module, by the Weyl product formula.

    0-based, lambda + rho = v in the epsilon basis, v_k = a_k + ... + a_{n-1} + n - k,
    rho_k = n - k, v_n = rho_n = 0.  Both families take (v_i - v_j) / (j - i) for i < j
    (v_i / rho_i at j = n); type C adds (v_i + v_j) / (2n - i - j), j < n.  A 1 is skipped."""
    w = check_dominant(lt, weight)
    n = lt.rank
    v = [sum(w[k:]) + n - k for k in range(n)] + [0]
    c = lt.family == "C"
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n + 1):
            if v[i] - v[j] != j - i:
                num *= v[i] - v[j]
                den *= j - i
            if c and j < n and v[i] + v[j] != 2 * n - i - j:
                num *= v[i] + v[j]
                den *= 2 * n - i - j
    q, rem = divmod(num, den)
    if rem:
        raise VerificationError(
            "rootsys.weyl_dim_integral", f"{lt} {w}: Weyl formula gives {num}/{den}"
        )
    return q


@lru_cache(maxsize=None)
def base_weights(lt: LieType, weight: tuple[int, ...]):
    """The base pair times D = ``weight_denominator(lt)``, as integers: D*lambda
    in the source lattice and D times the lifted weight in the companion
    lattice, both in simple-root coordinates."""
    d = weight_denominator(lt)
    return (
        weight_numerators(lt.family, lt.rank, weight, d),
        weight_numerators(lt.family, lt.target_rank, lifted_coeffs(lt, weight), d),
    )


@lru_cache(maxsize=None)
def _label_roots(lt: LieType) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each label's root as its nonzero (coordinate, coefficient) entries."""
    return tuple(
        tuple((c, e) for c, e in enumerate(root_expansion(lt, lab)) if e)
        for lab in build_labels(lt)
    )


def root_delta(lt: LieType, p: Sequence[int]) -> tuple[int, ...]:
    """sum p * alpha over the labels, in simple-root coordinates (integers)."""
    roots = _label_roots(lt)
    if len(p) != len(roots):
        raise ValueError(f"exponent vector must have length {len(roots)}")
    delta = [0] * lt.rank
    for x, root in zip(p, roots):
        if x:
            for c, e in root:
                delta[c] += x * e
    return tuple(delta)


def letter_histogram(lt: LieType, q: Sequence[int]) -> tuple[int, ...]:
    """sum q_k alpha_{i_k} over the reduced word: the exponent of each letter."""
    word = reduced_word(lt)
    if len(q) != len(word):
        raise ValueError(f"string vector must have length {len(word)}")
    delta = [0] * lt.target_rank
    for x, letter in zip(q, word):
        if x:
            delta[letter - 1] += x
    return tuple(delta)


def pack_width(bound: int) -> int:
    """The least multiple of 8 bits whose balanced digits hold |x| <= bound."""
    return 8 * (bound.bit_length() // 8 + 1)


def pack(v: Sequence[int], b: int) -> int:
    """sum v_r * 2^(b*(N-1-r)), one balanced b-bit digit per coordinate: linear,
    and injective and monotone for lex order on coordinates in +-(2^(b-1)-1)."""
    x = 0
    for c in v:
        x = (x << b) + c
    return x


def unpack(xs: Iterable[int], n: int, b: int) -> list[ExponentVector]:
    """Inverse of ``pack`` on n coordinates.  ``tops`` is 2^(b-1) in every digit,
    so x + tops holds d + 2^(b-1) per digit, no carry; at 1, 2, 4 and 8 bytes its
    XOR with tops writes every d in two's complement for struct's signed codes, and
    any other width reads digit r as ((x + tops) >> b*r & mask) - 2^(b-1)."""
    k = b // 8
    tops = ((1 << b * n) - 1) // ((1 << b) - 1) << (b - 1)
    if k in (1, 2, 4, 8):
        blob = b"".join([((x + tops) ^ tops).to_bytes(n * k, "big") for x in xs])
        return list(struct.iter_unpack(f">{n}{'bhiq'[k.bit_length() - 1]}", blob))
    mask, half, shifts = (1 << b) - 1, 1 << (b - 1), range(b * (n - 1), -1, -b)
    return [tuple((y >> s & mask) - half for s in shifts) for y in [x + tops for x in xs]]


def fflv_weight(lt: LieType, weight: Sequence[int], p: Sequence[int]) -> WeightVector:
    """Weight of the exponent vector p in the source lattice: lambda - sum p * alpha."""
    base, _ = base_weights(lt, check_dominant(lt, weight))
    d = weight_denominator(lt)
    return tuple(Fraction(b - d * x, d) for b, x in zip(base, root_delta(lt, p)))


def string_weight(lt: LieType, weight: Sequence[int], q: Sequence[int]) -> WeightVector:
    """Weight of the word monomial with exponents q, in the companion lattice."""
    _, base = base_weights(lt, check_dominant(lt, weight))
    d = weight_denominator(lt)
    return tuple(Fraction(b - d * x, d) for b, x in zip(base, letter_histogram(lt, q)))


def dominant_weights(rank: int, max_level: int) -> Iterator[tuple[int, ...]]:
    """All dominant weights with coefficient sum <= max_level, deterministically.

    Ordered by level, then lexicographically.  A weight of level L is the
    gaps between rank - 1 bars among L + rank - 1 slots (stars and bars);
    ``combinations`` yields the bar positions in lex order, which is the lex
    order of the weights, so they stream without a sort.
    """
    if type(rank) is not int or rank < 1 or type(max_level) is not int:
        raise ValueError(f"need an int rank >= 1 and an int level, got {rank!r}, {max_level!r}")
    for level in range(max_level + 1):
        end = level + rank - 1
        for bars in combinations(range(end), rank - 1):
            yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))
