"""Letter moves, the bracketing rule, the Demazure walk and string extraction."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflvstring.crystal import (
    LOWER,
    _decode,
    _key_signature,
    _signature_tables,
    demazure_set,
    extract_string,
    letter_classes,
    letter_count,
    string_points,
    walk,
    walk_word,
)
from fflvstring.degenmap import build_translation
from fflvstring.errors import VerificationError
from fflvstring.rootsys import (
    LieType,
    dominant_weights,
    natural_dim,
    pack,
    pack_width,
    reduced_word,
    unpack,
    weyl_dim,
)
from conftest import A2, A3, C2, C3, traced_memory
from oracles import cartan, demazure_character, longest_word, word_is_reduced


def build_highest(lt, w):
    """The highest-weight tensor word of the lifted weight: a_i copies of the
    column word 1, 2, ..., 2i-1 for each i."""
    return tuple(
        letter for i, a in enumerate(w, start=1) for _ in range(a) for letter in range(1, 2 * i)
    )


def _ignore(s):
    """A consumer that keeps no leaf."""


def _walked(lt, w, b):
    """The packed strings ``walk`` hands its consumer, in walk order."""
    strings = []
    walk(lt, w, b, strings.append)
    return strings


def _strings(lt, w):
    """The Demazure set as tensor words, sorted and distinct, each with its
    string extracted by the letter-level reference; those strings are
    exactly the walk's."""
    words, word = demazure_set(lt, w), reduced_word(lt)
    table, top = letter_classes(lt.family, lt.target_rank), build_highest(lt, w)
    pairs = {b: extract_string(table, b, word, top) for b in words}
    assert list(words) == sorted(pairs) and sorted(pairs.values()) == list(string_points(lt, w))
    return pairs


def _lower(vc, j, letter):
    """Reference f_j on one letter of the vector crystal ``vc = (family, rank)``.

    Family A moves j to j+1; family C also moves 2*rank-j, i.e. (j+1)-bar to
    j-bar, and the long operator j = rank moves rank to rank-bar.
    """
    family, rank = vc
    if letter == j or (family == "C" and letter == 2 * rank - j):
        return letter + 1
    return None


def _raise(vc, j, letter):
    """Reference e_j on one letter: the inverse move of ``_lower``."""
    return letter - 1 if _lower(vc, j, letter - 1) is not None else None


def _letters(vc):
    return range(1, natural_dim(*vc) + 1)


def test_extract_string_examples():
    table = letter_classes("A", 3)
    word = reduced_word(A2)
    assert word == (2, 3, 1)
    assert extract_string(table, (1,), word, (1,)) == (0, 0, 0)
    assert extract_string(table, (2,), word, (1,)) == (0, 0, 1)
    assert extract_string(table, (3,), word, (1,)) == (1, 0, 1)


def test_extract_string_rejects_foreign_element():
    table = letter_classes("A", 3)
    with pytest.raises(VerificationError) as info:
        extract_string(table, (2,), (2,), (1,))
    assert info.value.gate == "crystal.highest_weight"
    # the empty word is highest-weight, but not the highest word (1,)
    with pytest.raises(VerificationError) as info:
        extract_string(table, (), (2, 3, 1), (1,))
    assert info.value.gate == "crystal.highest_weight"


@pytest.mark.parametrize(
    "family,rank,level",
    [
        ("A", 1, 3), ("A", 2, 2), ("A", 3, 1), ("A", 4, 3), ("A", 5, 2),
        ("C", 1, 3), ("C", 2, 2), ("C", 3, 2), ("C", 4, 2),
    ],
)
def test_string_round_trip(family, rank, level):
    # the column walk agrees with the letter-level reference: its strings are
    # those extracted from demazure_set's replayed elements (``_strings``),
    # and lowering the highest word by them (stepwise rule, cheap up to level
    # 4 - rank) gives the replayed element back
    lt = LieType(family, rank)
    vc = (family, lt.target_rank)
    word = reduced_word(lt)
    for w in dominant_weights(rank, level):
        top = build_highest(lt, w)
        for b, q in _strings(lt, w).items():
            if sum(w) > 4 - rank:
                continue
            x = top
            for j, k in reversed(list(zip(word, q))):
                for _ in range(k):
                    x = _ref_step(vc, j, x, lower=True)
            assert x == b


@pytest.mark.parametrize(
    "family,rank,level", [("A", 2, 2), ("A", 3, 1), ("C", 2, 1), ("C", 3, 1)]
)
def test_extremal_element_extracts_to_translation(family, rank, level):
    # full lowering saturation of the highest word along the reduced word
    lt = LieType(family, rank)
    vc = (family, lt.target_rank)
    word = reduced_word(lt)
    for w in dominant_weights(rank, level):
        top = b = build_highest(lt, w)
        for j in reversed(word):
            while (x := _ref_step(vc, j, b, lower=True)) is not None:
                b = x
        q = extract_string(letter_classes(*vc), b, word, top)
        assert q == build_translation(lt, w)


@pytest.mark.parametrize(
    "family,rank,level",
    [("A", 1, 3), ("A", 2, 3), ("A", 3, 3), ("A", 4, 3), ("C", 2, 2), ("C", 3, 2)],
)
def test_sorted_packed_strings_decode_in_lex_order(family, rank, level):
    lt = LieType(family, rank)
    for w in dominant_weights(rank, level):
        # the width holds the letter count, the most that f_j^k can lower
        assert letter_count(w) == len(build_highest(lt, w))
        b = pack_width(letter_count(w))
        packed = sorted(_walked(lt, w, b))
        vecs = unpack(packed, len(reduced_word(lt)), b)
        assert vecs == sorted(vecs) and len(set(vecs)) == len(vecs)
        assert [pack(v, b) for v in vecs] == packed


def _descending_key_signature(row, key, width):
    """The key scan run highest bit first: a plus cancels the nearest
    unmatched minus to its right."""
    minus = []
    for bit in reversed(range(key.bit_length())):
        if key >> bit & 1:
            c = row[bit % width + 1]
            if c == LOWER:
                minus.append(3 << bit)
            elif c:
                if not minus:
                    return None
                minus.pop()
    return tuple(minus)


def test_per_letter_count_gate(monkeypatch, fresh_walk_steps):
    # under a descending key scan the highest word of C3 omega_3 is no head
    # at the walk's first letter, so the walk drops it there and reaches no
    # leaf: the final count catches what a per-letter count once caught
    monkeypatch.setattr("fflvstring.crystal._key_signature", _descending_key_signature)
    pattern = "closure has 0 elements, expected 14"
    with pytest.raises(VerificationError, match=pattern) as info:
        string_points(C3, (0, 0, 1))
    assert info.value.gate == "crystal.demazure_dimension"


@pytest.mark.parametrize("lt,w", [(A2, (1, 1)), (C3, (0, 1, 1))])
def test_walk_given_a_wrong_count_raises(monkeypatch, lt, w):
    # the walk counts its leaves against the Weyl dimension; any other
    # count trips the gate after the last leaf
    b, dim = pack_width(len(build_highest(lt, w))), weyl_dim(lt, w)
    assert walk(lt, w, b, _ignore) == len(_walked(lt, w, b)) == dim
    for wrong in (dim - 1, dim + 1):
        monkeypatch.setattr("fflvstring.crystal.weyl_dim", lambda lt, w, n=wrong: n)
        with pytest.raises(VerificationError, match=f"expected {wrong}") as info:
            walk(lt, w, b, _ignore)
        assert info.value.gate == "crystal.demazure_dimension"


def test_walk_steps_are_kept_per_width():
    # the step table of a type and column count is cached per width: the
    # strings of one weight at 8 and at 16 bits decode to the same vectors
    for lt, w in ((A3, (1, 0, 1)), (C2, (1, 1))):
        n = len(reduced_word(lt))
        decoded = [sorted(unpack(_walked(lt, w, b), n, b)) for b in (8, 16)]
        assert decoded[0] == decoded[1] == sorted(string_points(lt, w))


@pytest.mark.parametrize(
    "lt,w",
    [(C3, (0, 2, 2)), (LieType("C", 5), (0, 0, 1, 1, 0))],
    ids=["C3-0,2,2", "C5-0,0,1,1,0"],
)
def test_walk_peak_memory_stays_near_its_result(lt, w):
    # the walk holds only its stack: with its tables filled, a pass that
    # counts the leaves peaks at most 1/20 of the string set it would fill
    # (C3: 4.6 KB against 226 KB; C5: 5.6 KB against 1.03 MB)
    b = pack_width(len(build_highest(lt, w)))
    walk(lt, w, b, _ignore)
    leaves, _, peak = traced_memory(walk, lt, w, b, _ignore)
    strings, size, _ = traced_memory(lambda: set(_walked(lt, w, b)))
    assert leaves == len(strings) == weyl_dim(lt, w)
    assert 20 * peak <= size


@st.composite
def _reduced_words(draw):
    """A nonempty reduced word of A_m (m <= 5) or C_m (m <= 4), each drawn
    letter j kept only if w(alpha_j) > 0 for the word w so far, and the
    column heights of a dominant weight of level <= 3, k for each omega_k."""
    family = draw(st.sampled_from("AC"))
    m = draw(st.integers(1, 5 if family == "A" else 4))
    word = ()
    size = draw(st.integers(1, 40))  # enough letters to reach w0's length
    for j in draw(st.lists(st.integers(1, m), min_size=size, max_size=size)):
        if word_is_reduced(family, m, word + (j,)):
            word += (j,)
    level = draw(st.integers(0, 3))
    ks = draw(st.lists(st.integers(1, m), min_size=level, max_size=level))
    return family, m, word, sorted(ks)


@settings(max_examples=240)
@given(_reduced_words())
def test_core_leaf_weights_are_the_demazure_character(case):
    # known answer for any reduced word: the leaves' weights lambda - sum
    # q_k alpha_{i_k}, as simple-root coordinates of lambda - mu, are the
    # character D_{i_1} ... D_{i_N}(e^lambda) of the Demazure module
    family, m, word, heights = case
    b, strings = pack_width(sum(heights)), []
    assert walk_word(family, m, word, heights, b, strings.append) == len(strings)
    weights = Counter(
        tuple(sum(x for x, letter in zip(q, word) if letter == i) for i in range(1, m + 1))
        for q in unpack(strings, len(word), b)
    )
    coeffs = [heights.count(k) for k in range(1, m + 1)]
    assert dict(weights) == demazure_character(family, m, word, coeffs)


def test_core_walks_the_empty_word_to_its_highest_element():
    # the identity's Demazure set is the highest element alone: one leaf,
    # the empty string, for any columns, the empty set of columns included
    for family, m, heights in (("A", 2, [1]), ("C", 3, [1, 3, 5]), ("A", 1, [])):
        strings = []
        assert walk_word(family, m, (), heights, 8, strings.append) == 1
        assert strings == [0]


def _nice_word_points(m, w):
    """The nice word (1)(2 1)(3 2 1)... of w0 in A_m and the lattice points of
    its string polytope (Littelmann 1998, Sec. 5 and Prop. 1.5), built from
    the last entry: each block nonincreasing and >= 0, and t_k <= <lambda,
    alpha_{i_k}^vee> - sum_{l>k} t_l <alpha_{i_l}, alpha_{i_k}^vee>."""
    word = longest_word("A", m)
    a, points = cartan("A", m), [()]
    for k in reversed(range(len(word))):
        i, rest = word[k], word[k + 1 :]
        low = rest[:1] == (i - 1,)  # the next letter is in this block
        points = [
            (t, *p)
            for p in points
            for t in range(p[0] if low else 0,
                           w[i - 1] + 1 - sum(x * a[i - 1][j - 1] for x, j in zip(p, rest)))
        ]
    return word, sorted(points)


@pytest.mark.parametrize("m,level", [(1, 3), (2, 2), (3, 2), (4, 1)])
def test_core_strings_of_the_nice_word_are_littelmanns_polytope(m, level):
    for w in dominant_weights(m, level):
        word, points = _nice_word_points(m, w)
        heights = [k for k, a in enumerate(w, start=1) for _ in range(a)]
        b, strings = pack_width(sum(heights)), []
        walk_word("A", m, word, heights, b, strings.append)
        assert sorted(unpack(strings, len(word), b)) == points


def _signature(vc, j, word):
    """Reference rule: delete adjacent (-, +) pairs of the signature until none."""
    sig = []
    for pos, letter in enumerate(word):
        if _lower(vc, j, letter) is not None:
            sig.append((pos, "-"))
        elif _raise(vc, j, letter) is not None:
            sig.append((pos, "+"))
    k = 0
    while k + 1 < len(sig):
        if sig[k][1] == "-" and sig[k + 1][1] == "+":
            del sig[k : k + 2]
            k = max(k - 1, 0)
        else:
            k += 1
    return [p for p, s in sig if s == "+"], [p for p, s in sig if s == "-"]


def _ref_step(vc, j, word, lower):
    """One operator step by the reference rule, or None."""
    plus, minus = _signature(vc, j, word)
    if not (minus if lower else plus):
        return None
    pos = minus[0] if lower else plus[-1]
    new = _lower(vc, j, word[pos]) if lower else _raise(vc, j, word[pos])
    return word[:pos] + (new,) + word[pos + 1 :]


def _moved(word, positions, step):
    return tuple(x + step if p in positions else x for p, x in enumerate(word))


@st.composite
def _tensor_words(draw):
    vc = (draw(st.sampled_from("AC")), draw(st.integers(1, 4)))
    word = draw(st.lists(st.sampled_from(_letters(vc)), max_size=10))
    return vc, tuple(word)


@settings(max_examples=300)
@given(_tensor_words())
def test_bracket_scan_matches_stepwise_rule(case):
    # the one-pass key scan reads any tensor word packed one letter per
    # column, untouched letters included
    vc, word = case
    table = letter_classes(*vc)
    width = natural_dim(*vc)
    bit = [width * c + letter - 1 for c, letter in enumerate(word)]
    elem = sum(1 << x for x in bit)
    for j in range(1, vc[1] + 1):
        plus, minus = _signature(vc, j, word)
        deltas = _key_signature(table[j], elem, width)
        assert deltas == (None if plus else tuple(3 << bit[p] for p in minus))
        assert all(p < q for p in plus for q in minus)
        # one scan raises exactly the surviving + positions, each once,
        # which is raising until None by the stepwise rule
        assert extract_string(table, word, (j,), _moved(word, plus, -1)) == (len(plus),)
        x, steps = word, 0
        while (nx := _ref_step(vc, j, x, lower=False)) is not None:
            x, steps = nx, steps + 1
        assert (x, steps) == (_moved(word, plus, -1), len(plus))
        # f_j^k lowers the first k surviving - positions
        x = word
        for k in range(1, len(minus) + 1):
            x = _ref_step(vc, j, x, lower=True)
            assert x == _moved(word, minus[:k], 1)
        assert _ref_step(vc, j, x, lower=True) is None


@st.composite
def _column_elements(draw):
    """A packed element of up to 4 strictly increasing columns, with its word."""
    vc = (draw(st.sampled_from("AC")), draw(st.integers(1, 4)))
    width = natural_dim(*vc)
    columns = draw(
        st.lists(st.sets(st.sampled_from(_letters(vc)), min_size=1), min_size=1, max_size=4)
    )
    elem = sum(1 << (width * c + letter - 1) for c, col in enumerate(columns) for letter in col)
    word = tuple(letter for col in columns for letter in sorted(col))
    return vc, len(columns), elem, word


@settings(max_examples=200)
@given(_column_elements())
def test_signature_table_matches_letter_scan(case):
    # the table entry of each operator's key, j = m of type C included, filled
    # as the walk fills it, agrees with the stepwise rule on the decoded word:
    # the same heads, and f_j^k gives the word lowered at the first k
    # surviving minus positions
    vc, columns, elem, word = case
    width = natural_dim(*vc)
    assert _decode(elem, width) == word
    unit = sum(1 << (width * c) for c in range(columns))
    rows = letter_classes(*vc)
    for j in range(1, vc[1] + 1):
        letters, _ = _signature_tables(*vc)[j]
        deltas = _key_signature(rows[j], elem & letters * unit, width)
        plus, minus = _signature(vc, j, word)
        assert (deltas is None) == bool(plus)
        if plus:
            continue
        assert len(deltas) == len(minus)
        x = elem
        for k, delta in enumerate(deltas, start=1):
            x ^= delta
            assert _decode(x, width) == _moved(word, minus[:k], 1)
