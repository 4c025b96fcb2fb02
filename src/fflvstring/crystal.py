"""Demazure crystals inside tensor powers of the vector crystal.

The companion algebra of rank m = 2n-1 acts on letters 1..m+1 for family A
and 1..2m for family C (reading 1 < ... < m < m-bar < ... < 1-bar); a table
per family and rank gives, for each operator index, the class of every
letter (lowered, raised or untouched), indexed by the letter.  Tensor words
are plain tuples of letters.  One left-to-right bracket scan per operator
index j (Kashiwara's signature rule) leaves a signature +^a -^c; a word with
a = 0 is a j-head, and f_j^k lowers the first k of its c minus positions.

One walk along the reduced word, right to left, builds the Demazure set with
the string vector (Littelmann's string coordinates) of each element over the
letters done so far.  By the string property (Kashiwara 1993) the set meets
every j-string in nothing, its head alone or the whole string, so at letter
j each head b with string s gives f_j^k(b) with string (k,) + s, k = 0..c,
and every other element is made again by its head.  Were the property to
fail, elements would be lost and the dimension gate would fire.  Strings are
packed (``rootsys.pack``): prepending k adds k times the letter's digit.
``extract_string``, raising an element back along the whole word, is the
independent reference.  The gate also pins the scan direction and the walk
order, as the tests show: a forward walk loses an element of A2 omega_1, and
a right-to-left scan (a mirrored word) over-fills A2 (1,1).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import VerificationError
from .rootsys import (
    ExponentVector,
    LieType,
    check_dominant,
    natural_dim,
    pack_width,
    reduced_word,
    unpack,
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


def _lowerable(row: tuple[int, ...], word: TensorWord) -> list[int] | None:
    """Surviving minus positions of the signature of ``word``, ascending.

    ``row`` is the ``letter_classes`` row of the operator.  A plus cancels
    the nearest unmatched minus to its left; a plus that meets none
    survives, so ``word`` is not a head and the scan returns None.
    """
    minus: list[int] = []
    for pos, letter in enumerate(word):
        c = row[letter]
        if c == LOWER:
            minus.append(pos)
        elif c:
            if not minus:
                return None
            minus.pop()
    return minus


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


def _walk(lt: LieType, w: tuple[int, ...], b: int) -> dict[TensorWord, int]:
    """Each Demazure element with its string vector packed in b-bit digits.

    A set whose size is not the dimension of the source module is a hard failure.
    """
    table = letter_classes(lt.family, lt.target_rank)
    strings: dict[TensorWord, int] = {build_highest(lt, w): 0}
    for k, j in enumerate(reversed(reduced_word(lt))):
        grown: dict[TensorWord, int] = {}
        place = 1 << (b * k)  # the digit of position N-1-k
        for elem, s in strings.items():
            if (minus := _lowerable(table[j], elem)) is None:
                continue
            grown[elem] = s
            x = list(elem)
            for pos in minus:
                x[pos] += 1
                s += place
                grown[tuple(x)] = s
        strings = grown
    expected = weyl_dim(lt, w)
    if len(strings) != expected:
        raise VerificationError(
            "crystal.demazure_dimension",
            f"{lt} {w}: closure has {len(strings)} elements, expected {expected}",
        )
    return strings


def demazure_set(lt: LieType, weight: tuple[int, ...]) -> tuple[TensorWord, ...]:
    """The Demazure crystal of the reduced word, as sorted tensor words."""
    w = check_dominant(lt, weight)
    return tuple(sorted(_walk(lt, w, pack_width(len(build_highest(lt, w))))))


def extract_string(
    table: tuple[tuple[int, ...], ...],
    b: TensorWord,
    word: tuple[int, ...],
    highest: TensorWord,
) -> ExponentVector:
    """Greedy raising along the word; the element must end at ``highest``.

    ``table`` is the ``letter_classes`` table of the companion algebra.  For
    each letter j, e_j^a with a maximal raises all a surviving plus
    positions of b in one scan that counts the open minus positions: a plus
    that meets none survives.  A Demazure element lies in the component of
    ``highest``, the only highest-weight element there.
    """
    q: list[int] = []
    for j in word:
        row, out, opened, a = table[j], list(b), 0, 0
        for pos, letter in enumerate(b):
            c = row[letter]
            if c == LOWER:
                opened += 1
            elif c:
                if opened:
                    opened -= 1
                else:
                    out[pos] = letter - 1
                    a += 1
        b = tuple(out)
        q.append(a)
    if b != highest:
        raise VerificationError(
            "crystal.highest_weight",
            f"element {b} is not a Demazure element for word {tuple(word)}",
        )
    return tuple(q)


def packed_strings(lt: LieType, w: tuple[int, ...], b: int) -> set[int]:
    """Packed string vectors of a checked weight; ``b`` must hold its letter
    count, as f_j^k lowers k distinct letters.  Two elements sharing one
    string vector is a hard failure."""
    elements = _walk(lt, w, b)
    packed = set(elements.values())
    if len(packed) != len(elements):
        owner = {q: word for word, q in elements.items()}
        word, q = next((word, q) for word, q in elements.items() if owner[q] != word)
        (vec,) = unpack([q], len(reduced_word(lt)), b)
        raise VerificationError(
            "crystal.string_injectivity",
            f"{lt} {w}: elements {word} and {owner[q]} share string vector {vec}",
        )
    return packed


def string_points(lt: LieType, weight: tuple[int, ...]) -> tuple[ExponentVector, ...]:
    """String vectors of the Demazure crystal, as a canonical point set."""
    w = check_dominant(lt, weight)
    b = pack_width(len(build_highest(lt, w)))
    return tuple(unpack(sorted(packed_strings(lt, w, b)), len(reduced_word(lt)), b))
