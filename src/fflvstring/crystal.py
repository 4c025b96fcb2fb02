"""Demazure crystals inside tensor powers of the vector crystal.

The companion algebra of rank m = 2n-1 acts on letters 1..m+1 for family A
and 1..2m for family C (reading 1 < ... < m < m-bar < ... < 1-bar); a table
per family and rank lists the letters each lowering operator moves.  Tensor
words are plain tuples of letters.  One left-to-right bracket scan per
operator index leaves a signature +^a -^b: string extraction raises all a
plus positions at once, and the saturation along the reduced word lowers
the b minus positions left to right.

The scan direction and the saturation order are fixed conventions, not
forced by the construction.  The tests show that each alternative fails the
dimension gate: forward saturation loses an element of A2 omega_1, and a
right-to-left scan (a mirrored tensor word) makes the highest word of
A2 (1,1) non-highest and over-fills its closure.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import VerificationError
from .rootsys import ExponentVector, LieType, check_dominant, reduced_word, weyl_dim

TensorWord = tuple[int, ...]


@lru_cache(maxsize=None)
def movers(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Letters that the lowering operator f_j moves to their successors, by j.

    For family A, f_j moves letter j to j+1.  For family C it moves letters
    j and 2m-j, which in bar notation is j -> j+1 and (j+1)-bar -> j-bar (and
    m -> m-bar for j = m, where the two indices coincide).  Raising e_j is the
    inverse move.  Entry 0 is empty, so the table is indexed by j = 1..rank.
    """
    if family == "A":
        return ((),) + tuple((j,) for j in range(1, rank + 1))
    return ((),) + tuple(
        (j,) if j == rank else (j, 2 * rank - j) for j in range(1, rank + 1)
    )


def _surviving(moved: tuple[int, ...], word: TensorWord):
    """Unmatched raising/lowering positions after bracket cancellation.

    ``moved`` holds the letters f_j moves.  Returns (plus, minus), both
    ascending: a raisable letter cancels the nearest unmatched lowerable
    letter to its left, so every surviving plus lies left of every
    surviving minus.
    """
    plus: list[int] = []
    minus: list[int] = []
    for pos, letter in enumerate(word):
        if letter in moved:
            minus.append(pos)
        elif letter - 1 in moved:
            if minus:
                minus.pop()
            else:
                plus.append(pos)
    return plus, minus


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
    table = movers(lt.family, lt.target_rank)
    current: set[TensorWord] = {build_highest(lt, w)}
    for j in reversed(reduced_word(lt)):
        grown = set(current)
        for b in current:
            _, minus = _surviving(table[j], b)
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
    table: tuple[tuple[int, ...], ...],
    b: TensorWord,
    word: tuple[int, ...],
    highest: TensorWord,
) -> ExponentVector:
    """Greedy raising along the word; the element must end at ``highest``.

    ``table`` is the ``movers`` table of the companion algebra.  For each
    letter j, e_j^a with a maximal raises all a surviving plus positions of
    b at once.  A Demazure element lies in the component of ``highest``, the
    only highest-weight element there.
    """
    q: list[int] = []
    for j in word:
        plus, _ = _surviving(table[j], b)
        x = list(b)
        for pos in plus:
            x[pos] -= 1
        b = tuple(x)
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
    table = movers(lt.family, lt.target_rank)
    word = reduced_word(lt)
    top = build_highest(lt, w)
    seen: dict[ExponentVector, TensorWord] = {}
    for b in demazure_set(lt, w):
        q = extract_string(table, b, word, top)
        if q in seen:
            raise VerificationError(
                "crystal.string_injectivity",
                f"{lt} {w}: elements {seen[q]} and {b} share string vector {q}",
            )
        seen[q] = b
    return tuple(sorted(seen))

