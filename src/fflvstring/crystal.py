"""Demazure crystals inside tensor powers of the vector crystal.

The companion algebra of rank m = 2n-1 acts on letters 1..m+1 for family A
and 1..2m for family C (reading 1 < ... < m < m-bar < ... < 1-bar); a table
per family and rank gives, for each operator index, the class of every
letter (lowered, raised or untouched), indexed by the letter.  Tensor words
are plain tuples of letters.  One left-to-right bracket scan per operator
index j (Kashiwara's signature rule) leaves a signature +^a -^c; a word with
a = 0 is a j-head, and f_j^k lowers the first k of its c minus positions.

The highest word is a run of columns 1, 2, ..., 2i-1, and each column stays
strictly increasing under the operators (Kashiwara-Nakashima 1994): f_j
cannot lower a letter whose successor is in the same column, as the two
cancel in the scan.  So the walk packs an element into one int, one
width-bit mask per column, and the scan of operator j needs only the bits of
the letters it classes: a per-type table maps that key to None (not a head)
or to the xor deltas ``3 << bit`` of its surviving minus letters, and f_j^k
is k xors.  The table is filled by ``_key_signature``, one pass over the
key's bits, lowest first, which with ``letter_classes`` is the one statement
of the bracket rule.

The depth-first ``walk_word`` from the highest element, taking the letters
of a reduced word last first, hands each leaf's string (Littelmann's string
coordinates, packed by ``rootsys.pack``) to a consumer and counts the
leaves.  By the string property (Kashiwara 1993) the set built from the
letters done so far meets every j-string in nothing, its head alone or the
whole string, so the next set is the f_j^t(h), t = 0..c, of its j-heads h:
the recursion is a tree, and its leaves have distinct strings, as
epsilon_j(f_j^t(h)) = t.  ``walk`` runs it on the distinguished word and
gates the count on the dimension of the source module, which makes the
leaves the whole Demazure set.  ``extract_string``, raising a tensor word
back along the word, is the independent reference.  The gate also pins the
scan direction and the walk order: a forward walk loses an element of A2
omega_1, and a descending key scan leaves C3 omega_3 no head at its first
letter.
"""

from __future__ import annotations

from typing import Callable
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


Signature = tuple[int, ...] | None


@lru_cache(maxsize=None)
def _signature_tables(family: str, rank: int) -> tuple[tuple[int, dict[int, Signature]], ...]:
    """Per operator index j: the letters it classes, as a one-column bitmask,
    and its key table, filled by ``_key_signature`` as the walk meets each key."""
    return tuple(
        (sum(1 << (letter - 1) for letter, c in enumerate(row) if c), {})
        for row in letter_classes(family, rank)
    )


def _key_signature(row: tuple[int, ...], key: int, width: int) -> Signature:
    """None if the letters ``key`` of a packed element are not a head of the
    operator of ``row``, else the xor deltas ``3 << bit`` that lower its
    surviving minus letters, in scan order.

    One pass over the set bits, lowest first, is the left-to-right bracket
    scan: a plus cancels the nearest unmatched minus to its left, and a plus
    that meets none survives, so the element is not a head.
    """
    minus: list[int] = []
    while key:
        low = key & -key
        key ^= low
        c = row[(low.bit_length() - 1) % width + 1]
        if c == LOWER:
            minus.append(3 * low)
        elif c:
            if not minus:
                return None
            minus.pop()
    return tuple(minus)


def _decode(elem: int, width: int) -> TensorWord:
    """The tensor word of a packed element: its letters in bit order."""
    return tuple(bit % width + 1 for bit in range(elem.bit_length()) if elem >> bit & 1)


def letter_count(w: tuple[int, ...]) -> int:
    """The length of the highest word: a_i columns 1, 2, ..., 2i - 1."""
    return sum((2 * i - 1) * a for i, a in enumerate(w, start=1))


@lru_cache(maxsize=None)
def _steps(family: str, m: int, word: tuple[int, ...], columns: int, b: int) -> tuple[tuple, ...]:
    """Per letter of the word, last first: its string digit place at width b,
    its classed bits over all columns, its key table and its row."""
    rows, tables = letter_classes(family, m), _signature_tables(family, m)
    unit = _highest([1] * columns, natural_dim(family, m))
    return tuple(
        (1 << (b * k), tables[j][0] * unit, tables[j][1], rows[j])  # digit of N-1-k
        for k, j in enumerate(reversed(word))
    )


def _highest(heights: list[int], width: int) -> int:
    """The packed highest element: column c holds the letters 1..heights[c]."""
    return sum(((1 << h) - 1) << (width * c) for c, h in enumerate(heights))


def walk_word(family: str, m: int, word: tuple, heights: list, b: int, take: Callable) -> int:
    """Hand each leaf's packed string to ``take`` and return the leaf count,
    ungated: the walk of a reduced word of the rank-m algebra from the
    highest element of columns 1..h, h in ``heights``, letter L of column c
    at bit width*c + L - 1.  A head of the next letter pushes its children
    f_j^t, t >= 1, each with its string and the number of letters done, and
    walks on as its own child t = 0; at the last letter it hands all their
    strings to ``take``.  The empty word, the identity, has the one leaf 0,
    the highest element.  ``b`` must hold the letter count (f_j^k lowers k).
    """
    width, steps = natural_dim(family, m), _steps(family, m, word, len(heights), b)
    if not steps:
        take(0)
        return 1
    last, leaves = len(steps) - 1, 0
    stack = [(_highest(heights, width), 0, 0)]
    while stack:
        elem, s, k = stack.pop()
        while True:
            place, classed, table, row = steps[k]
            key = elem & classed
            deltas = table.get(key, row)  # row: never a table value
            if deltas is row:
                deltas = table[key] = _key_signature(row, key, width)
            if deltas is None:
                break
            if k == last:
                leaves += 1 + len(deltas)
                take(s)
                for _ in deltas:
                    s += place
                    take(s)
                break
            k += 1
            child, x = elem, s
            for delta in deltas:
                child ^= delta
                x += place
                stack.append((child, x, k))
    return leaves


def walk(lt: LieType, w: tuple[int, ...], b: int, take: Callable) -> int:
    """The leaf count of ``walk_word`` on the distinguished word from the lifted
    columns 1, 3, ..., 2i - 1, gated here on the dimension of the source module."""
    sizes = [2 * i - 1 for i, a in enumerate(w, start=1) for _ in range(a)]
    leaves = walk_word(lt.family, lt.target_rank, reduced_word(lt), sizes, b, take)
    if leaves != (expected := weyl_dim(lt, w)):
        raise VerificationError(
            "crystal.demazure_dimension",
            f"{lt} {w}: closure has {leaves} elements, expected {expected}",
        )
    return leaves


def demazure_set(lt: LieType, weight: tuple[int, ...]) -> tuple[TensorWord, ...]:
    """The Demazure crystal of the reduced word, as sorted tensor words: each
    string replayed from the highest word on the key tables its walk filled."""
    w = check_dominant(lt, weight)
    b, strings = pack_width(letter_count(w)), []
    walk(lt, w, b, strings.append)
    width, tables = lt.target_dim, _signature_tables(lt.family, lt.target_rank)
    sizes = [2 * i - 1 for i, a in enumerate(w, start=1) for _ in range(a)]
    top, unit, out = _highest(sizes, width), _highest([1] * len(sizes), width), []
    for s in strings:
        elem = top
        for k, j in enumerate(reversed(reduced_word(lt))):
            letters, table = tables[j]
            for delta in table[elem & letters * unit][: s >> b * k & (1 << b) - 1]:
                elem ^= delta
        out.append(_decode(elem, width))
    return tuple(sorted(out))


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


def packed_string_points(
    lt: LieType, weight: tuple[int, ...]
) -> tuple[list[int], int, int]:
    """String vectors of the Demazure crystal, packed: (sorted ints, N, b),
    at the width ``pack_width`` gives the letter count."""
    w = check_dominant(lt, weight)
    b, out = pack_width(letter_count(w)), []
    walk(lt, w, b, out.append)
    out.sort()
    return out, len(reduced_word(lt)), b


def string_points(lt: LieType, weight: tuple[int, ...]) -> tuple[ExponentVector, ...]:
    """String vectors of the Demazure crystal, as a canonical point set."""
    return tuple(unpack(*packed_string_points(lt, weight)))
