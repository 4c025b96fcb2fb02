"""Demazure crystals inside tensor powers of the vector crystal.

The companion algebra of rank m = 2n-1 acts on letters 1..m+1 for family A
and 1..2m for family C (reading 1 < ... < m < m-bar < ... < 1-bar); a table
per family and rank gives, for each operator index, the class of every
letter (lowered, raised or untouched), indexed by the letter.  Tensor words
are plain tuples of letters.  One left-to-right bracket scan per operator
index (Kashiwara's signature rule) leaves a signature +^a -^b: string
extraction raises all a plus positions in the scan itself, counting the
open minus positions instead of listing them, and the saturation along the
reduced word lowers the b minus positions left to right.

The scan direction and the saturation order are fixed conventions, not
forced by the construction.  The tests show that each alternative fails the
dimension gate: forward saturation loses an element of A2 omega_1, and a
right-to-left scan (a mirrored tensor word) makes the highest word of
A2 (1,1) non-highest and over-fills its closure.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import VerificationError
from .rootsys import (
    ExponentVector,
    LieType,
    check_dominant,
    natural_dim,
    reduced_word,
    weyl_dim,
)

TensorWord = tuple[int, ...]


LOWER, RAISE = 1, -1


@lru_cache(maxsize=None)
def letter_classes(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Class of every letter under the operator index j: LOWER, RAISE or 0.

    For family A, f_j moves letter j to j+1.  For family C it moves letters
    j and 2m-j, which in bar notation is j -> j+1 and (j+1)-bar -> j-bar (and
    m -> m-bar for j = m, where the two letters coincide).  A moved letter is
    LOWER (a minus of the j-signature), its successor RAISE (a plus), since
    e_j is the inverse move.  Row j is indexed by the letter itself; entry 0
    of the table and of each row is unused.
    """
    table: list[tuple[int, ...]] = [()]
    for j in range(1, rank + 1):
        row = [0] * (natural_dim(family, rank) + 1)
        for letter in (j,) if family == "A" else (j, 2 * rank - j):
            row[letter], row[letter + 1] = LOWER, RAISE
        table.append(tuple(row))
    return tuple(table)


def _lowerable(row: tuple[int, ...], word: TensorWord) -> list[int]:
    """Surviving minus positions of the signature of ``word``, ascending.

    ``row`` is the ``letter_classes`` row of the operator.  A plus cancels
    the nearest unmatched minus to its left, so f_j^k lowers the first k
    survivors.
    """
    minus: list[int] = []
    for pos, letter in enumerate(word):
        c = row[letter]
        if c == LOWER:
            minus.append(pos)
        elif c and minus:
            minus.pop()
    return minus


def _raise_all(row: tuple[int, ...], word: TensorWord) -> tuple[TensorWord, int]:
    """e_j^a(word) with a maximal, and a.

    A plus with no open minus to its left survives the bracketing, and no
    later letter can cancel it; so one left-to-right scan that counts the
    open minus positions raises every surviving plus as it passes.
    """
    out = list(word)
    opened = a = 0
    for pos, letter in enumerate(word):
        c = row[letter]
        if c == LOWER:
            opened += 1
        elif c:
            if opened:
                opened -= 1
            else:
                out[pos] = letter - 1
                a += 1
    return (tuple(out) if a else word), a


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
    table = letter_classes(lt.family, lt.target_rank)
    current: set[TensorWord] = {build_highest(lt, w)}
    for j in reversed(reduced_word(lt)):
        grown = set(current)
        for b in current:
            x = list(b)
            for pos in _lowerable(table[j], b):
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

    ``table`` is the ``letter_classes`` table of the companion algebra.  For
    each letter j, e_j^a with a maximal raises all a surviving plus
    positions of b at once.  A Demazure element lies in the component of
    ``highest``, the only highest-weight element there.
    """
    q: list[int] = []
    for j in word:
        b, a = _raise_all(table[j], b)
        q.append(a)
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
    table = letter_classes(lt.family, lt.target_rank)
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

