"""Demazure crystals inside tensor powers of the vector crystal.

The companion algebra of rank m = 2n-1 acts through its vector crystal:
letters 1..m+1 for family A, letters 1..2m for family C (reading
1 < ... < m < m-bar < ... < 1-bar).  Tensor words are plain tuples of
letters.  One left-to-right bracket scan per operator index leaves a
signature +^a -^b: string extraction raises all a plus positions at once,
and the saturation along the reduced word lowers the b minus positions
left to right.

The scan direction and the saturation order are fixed conventions, not
forced by the construction.  The tests show that each alternative fails the
dimension gate: forward saturation loses an element of A2 omega_1, and a
right-to-left scan (a mirrored tensor word) makes the highest word of
A2 (1,1) non-highest and over-fills its closure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import VerificationError
from .rootsys import (
    ExponentVector,
    LieType,
    check_dominant,
    lifted_coeffs,
    lifted_weight_roots,
    natural_dim,
    reduced_word,
    weyl_dim,
)

TensorWord = tuple[int, ...]


class VectorCrystal:
    """Letters of the natural-module crystal with partial raising/lowering.

    For family A the lowering operator with index j moves letter j to j+1.
    For family C it moves letters j and 2m-j to their successors, which in
    bar notation is j -> j+1 and (j+1)-bar -> j-bar (and m -> m-bar for
    j = m, where the two indices coincide).
    """

    def __init__(self, family: str, rank: int):
        if family not in ("A", "C"):
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError("rank must be positive")
        self.family = family
        self.rank = rank
        self.size = natural_dim(family, rank)

    def letters(self) -> range:
        return range(1, self.size + 1)

    def _movers(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.rank:
            raise ValueError(f"operator index {j} out of range")
        if self.family == "A":
            return (j,)
        other = 2 * self.rank - j
        return (j,) if other == j else (j, other)

    def f(self, j: int, letter: int) -> int | None:
        """Lower a single letter, or None."""
        return letter + 1 if letter in self._movers(j) else None

    def e(self, j: int, letter: int) -> int | None:
        """Raise a single letter, or None."""
        return letter - 1 if letter - 1 in self._movers(j) else None

    def letter_name(self, letter: int) -> str:
        if self.family == "A" or letter <= self.rank:
            return str(letter)
        return f"{2 * self.rank + 1 - letter}~"


def _surviving(crystal: VectorCrystal, j: int, word: TensorWord):
    """Unmatched raising/lowering positions after bracket cancellation.

    Returns (plus, minus), both ascending: a raisable letter cancels the
    nearest unmatched lowerable letter to its left, so every surviving plus
    lies left of every surviving minus.
    """
    movers = crystal._movers(j)
    plus: list[int] = []
    minus: list[int] = []
    for pos, letter in enumerate(word):
        if letter in movers:
            minus.append(pos)
        elif letter - 1 in movers:
            if minus:
                minus.pop()
            else:
                plus.append(pos)
    return plus, minus


def _shift(word: TensorWord, positions, step: int) -> TensorWord:
    """The word with the letters at ``positions`` moved by ``step``."""
    out = list(word)
    for pos in positions:
        out[pos] += step
    return tuple(out)


def tensor_f(crystal: VectorCrystal, j: int, word: TensorWord) -> TensorWord | None:
    """Lowering operator on a tensor word (leftmost unmatched lower), or None."""
    _, minus = _surviving(crystal, j, word)
    return _shift(word, minus[:1], 1) if minus else None


def tensor_e(crystal: VectorCrystal, j: int, word: TensorWord) -> TensorWord | None:
    """Raising operator on a tensor word (rightmost unmatched raise), or None."""
    plus, _ = _surviving(crystal, j, word)
    return _shift(word, plus[-1:], -1) if plus else None


def is_highest(crystal: VectorCrystal, word: TensorWord) -> bool:
    """True iff every raising operator kills the word."""
    return not any(
        _surviving(crystal, j, word)[0] for j in range(1, crystal.rank + 1)
    )


def build_highest(lt: LieType, weight) -> TensorWord:
    """Highest-weight tensor word for the lifted weight.

    Concatenates, for each i with a_i > 0, a_i copies of the column word
    1, 2, ..., 2i-1.
    """
    w = check_dominant(lt, weight)
    word: list[int] = []
    for i, a in enumerate(w, start=1):
        word.extend(list(range(1, 2 * i)) * a)
    return tuple(word)


def demazure_set(lt: LieType, weight: tuple[int, ...]) -> tuple[TensorWord, ...]:
    """Saturation of the highest-weight word along the reduced word.

    Walking the word right to left, each letter j replaces the current set S
    by { f_j^k(b) : b in S, k >= 0 }; f_j^k(b) lowers the first k surviving
    minus positions of b.  The result must have exactly as many elements as
    the source module has dimensions; a mismatch is a hard failure.
    """
    w = check_dominant(lt, weight)
    crystal = VectorCrystal(lt.family, lt.target_rank)
    current: set[TensorWord] = {build_highest(lt, w)}
    for j in reversed(reduced_word(lt)):
        grown = set(current)
        for b in current:
            _, minus = _surviving(crystal, j, b)
            x = list(b)
            for pos in minus:
                x[pos] += 1
                grown.add(tuple(x))
        current = grown
    expected = weyl_dim(lt, w)
    if len(current) != expected:
        raise VerificationError(
            "crystal.demazure_dimension",
            f"{lt} {w}: closure has {len(current)} elements, expected {expected}",
        )
    return tuple(sorted(current))


def extract_string(
    crystal: VectorCrystal, b: TensorWord, word: tuple[int, ...], highest: TensorWord
) -> ExponentVector:
    """Greedy raising along the word; the element must end at ``highest``.

    For each letter j, e_j^a with a maximal raises all a surviving plus
    positions of b at once.  A Demazure element lies in the component of
    ``highest``, the only highest-weight element there.
    """
    q: list[int] = []
    for j in word:
        plus, _ = _surviving(crystal, j, b)
        b = _shift(b, plus, -1)
        q.append(len(plus))
    if b != highest:
        raise VerificationError(
            "crystal.highest_weight",
            f"element {b} is not a Demazure element for word {tuple(word)}",
        )
    return tuple(q)


@lru_cache(maxsize=None)
def string_points(lt: LieType, weight: tuple[int, ...]) -> tuple[ExponentVector, ...]:
    """String vectors of the Demazure crystal, as a canonical point set.

    Extraction must be injective; two elements colliding on one string
    vector is a hard failure.
    """
    w = check_dominant(lt, weight)
    crystal = VectorCrystal(lt.family, lt.target_rank)
    word = reduced_word(lt)
    top = build_highest(lt, w)
    seen: dict[ExponentVector, TensorWord] = {}
    for b in demazure_set(lt, w):
        q = extract_string(crystal, b, word, top)
        if q in seen:
            raise VerificationError(
                "crystal.string_injectivity",
                f"{lt} {w}: elements {seen[q]} and {b} share string vector {q}",
            )
        seen[q] = b
    return tuple(sorted(seen))


def extremal_element(lt: LieType, weight) -> TensorWord:
    """Full lowering saturation of the highest word along the reduced word."""
    w = check_dominant(lt, weight)
    crystal = VectorCrystal(lt.family, lt.target_rank)
    b = build_highest(lt, w)
    for j in reversed(reduced_word(lt)):
        while (nb := tensor_f(crystal, j, b)) is not None:
            b = nb
    return b


def element_weight_roots(lt: LieType, weight, b: TensorWord):
    """Weight of a tensor word in simple-root coordinates of the companion lattice.

    Computed from letter counts: the defect of b against the highest word
    lies in the root lattice and converts exactly.
    """
    w = check_dominant(lt, weight)
    m = lt.target_rank
    coeffs = lifted_coeffs(lt, w)
    if lt.family == "A":
        top = [0] * (m + 1)
        wt = [0] * (m + 1)
        for k, a in enumerate(coeffs, start=1):
            for t in range(k):
                top[t] += a
        for letter in b:
            wt[letter - 1] += 1
        delta = [x - y for x, y in zip(top, wt)]
        if sum(delta) != 0:
            raise VerificationError(
                "crystal.word_weight_balance",
                f"{lt} {w}: word {tuple(b)} has {len(b)} letters, "
                f"the highest word {sum(top)}",
            )
        delta_roots = [Fraction(sum(delta[:k])) for k in range(1, m + 1)]
    else:
        top = [0] * m
        wt = [0] * m
        for k, a in enumerate(coeffs, start=1):
            for t in range(k):
                top[t] += a
        for letter in b:
            if letter <= m:
                wt[letter - 1] += 1
            else:
                wt[2 * m - letter] -= 1
        delta = [x - y for x, y in zip(top, wt)]
        delta_roots = [Fraction(sum(delta[:k])) for k in range(1, m)]
        delta_roots.append(Fraction(sum(delta), 2))
    lifted = lifted_weight_roots(lt, w)
    return tuple(x - d for x, d in zip(lifted, delta_roots))
