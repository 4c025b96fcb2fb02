"""Labels, orderings, reduced words, weights and the dimension formula."""

import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fflvstring.rootsys as rootsys
from fflvstring.errors import VerificationError
from fflvstring.rootsys import (
    LieType,
    RootLabel,
    base_weights,
    build_labels,
    cartan_matrix,
    column_key,
    dominant_weights,
    fflv_weight,
    fundamental_weight,
    lifted_coeffs,
    natural_dim,
    pack,
    pack_width,
    reduced_word,
    root_expansion,
    string_weight,
    unpack,
    vector_from_labels,
    weight_denominator,
    weyl_dim,
)
from conftest import A1, A2, A3, C2, C3
from oracles import freudenthal_dim, gt_dim, word_is_reduced


def test_lietype_validation():
    with pytest.raises(ValueError):
        LieType("B", 2)
    with pytest.raises(ValueError):
        LieType("A", 0)


def test_non_int_input_raises_value_error():
    # a float, a bool or a string of digits is refused, never truncated or
    # read, and so is rank 0; list() runs the generator
    for call, *args in [(LieType, "A", 2.0), (LieType, "A", True), (fundamental_weight, 2, 1.5),
                        (fundamental_weight, 2.0, 1), (fundamental_weight, True, 1),
                        (rootsys.check_dominant, A2, (1.9, 0)), (rootsys.check_dominant, A2, "12"),
                        (dominant_weights, 0, 2), (dominant_weights, 2.0, 1),
                        (dominant_weights, True, 1), (dominant_weights, 2, 1.5)]:
        with pytest.raises(ValueError):
            list(call(*args))


def test_natural_dim_and_fundamental_weight():
    assert [natural_dim("A", m) for m in (1, 2, 5)] == [2, 3, 6]
    assert [natural_dim("C", m) for m in (1, 2, 5)] == [2, 4, 10]
    assert (A3.target_dim, C3.target_dim) == (6, 10)
    assert fundamental_weight(3, 1) == (1, 0, 0)
    assert fundamental_weight(3, 3) == (0, 0, 1)


def test_labels_c2_printed_basis():
    assert build_labels(C2) == (
        RootLabel(1, 1, True),
        RootLabel(1, 2),
        RootLabel(2, 2),
        RootLabel(1, 1),
    )


def test_labels_a1_single_root():
    assert build_labels(A1) == (RootLabel(1, 1),)


def sorted_labels(lt):
    """The descending chain by its definition: every label of H(X_n), sorted
    by column key descending, then by row ascending."""
    n = lt.rank
    labels = [RootLabel(r, j) for j in range(1, n + 1) for r in range(1, j + 1)]
    if lt.family == "C":
        labels += [RootLabel(r, j, True) for j in range(1, n) for r in range(1, j + 1)]
    return tuple(sorted(labels, key=lambda lab: (-column_key(lab, n), lab.row)))


def test_labels_are_the_sorted_chain():
    types = [LieType(f, n) for f in "AC" for n in range(1, 13)]
    for lt in types + [LieType("A", 40), LieType("C", 30)]:
        assert build_labels(lt) == sorted_labels(lt), lt


@pytest.mark.parametrize("family", ["A", "C"])
@pytest.mark.parametrize("rank", range(1, 11))
def test_label_count_matches_word_length(family, rank):
    lt = LieType(family, rank)
    expected = rank * (rank + 1) // 2 if family == "A" else rank * rank
    assert len(build_labels(lt)) == expected
    assert len(reduced_word(lt)) == expected


def test_label_count_gate_trips(monkeypatch):
    monkeypatch.setattr(rootsys, "root_count", lambda lt: 4)
    with pytest.raises(VerificationError) as info:
        build_labels.__wrapped__(A2)
    assert info.value.gate == "rootsys.label_count"


@pytest.mark.parametrize("family", ["A", "C"])
@pytest.mark.parametrize("rank", range(1, 11))
def test_word_is_reduced(family, rank):
    lt = LieType(family, rank)
    word, m = reduced_word(lt), lt.target_rank
    assert word_is_reduced(family, m, word)
    # s_i s_i = 1 at either end
    assert not word_is_reduced(family, m, word + word[-1:])
    assert not word_is_reduced(family, m, word[:1] + word)


def test_reduced_word_fixtures():
    assert reduced_word(A3) == (3, 4, 5, 2, 3, 1)
    assert reduced_word(C2) == (3, 2, 3, 1)
    assert reduced_word(A1) == (1,)


@pytest.mark.parametrize("family", ["A", "C"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_word_letters_align_with_labels(family, rank):
    lt = LieType(family, rank)
    # the label (row, col) carries the letter row + column_key - 1
    letters = tuple(lab.row + column_key(lab, rank) - 1 for lab in build_labels(lt))
    assert letters == reduced_word(lt)


def test_column_key_identifies_n_and_n_bar():
    # key(n) == key(n-bar) realizes the n = n-bar convention
    assert column_key(RootLabel(1, 3), 3) == column_key(RootLabel(1, 3, True), 3)


def test_weyl_dim_fundamental_formulas():
    for n in range(1, 7):
        lt = LieType("A", n)
        for i in range(1, n + 1):
            assert weyl_dim(lt, fundamental_weight(lt.rank, i)) == math.comb(n + 1, i)
    for n in range(1, 6):
        lt = LieType("C", n)
        for k in range(1, n + 1):
            expected = math.comb(2 * n, k) - (
                math.comb(2 * n, k - 2) if k >= 2 else 0
            )
            assert weyl_dim(lt, fundamental_weight(lt.rank, k)) == expected
    # at a huge rank the zero weight and omega_1 skip all factors but a few
    for lt, natural in ((LieType("C", 300), 600), (LieType("A", 400), 401)):
        assert weyl_dim(lt, (0,) * lt.rank) == 1
        assert weyl_dim(lt, fundamental_weight(lt.rank, 1)) == natural


@pytest.mark.parametrize("rank", range(1, 5))
def test_weyl_dim_against_pattern_count(rank):
    lt = LieType("A", rank)
    for w in dominant_weights(rank, 3):
        assert weyl_dim(lt, w) == gt_dim(w)


@pytest.mark.parametrize(
    "family,rank,level", [("A", 2, 3), ("A", 3, 2), ("C", 2, 2), ("C", 3, 2)]
)
def test_weyl_dim_against_freudenthal(family, rank, level):
    lt = LieType(family, rank)
    for w in dominant_weights(rank, level):
        assert weyl_dim(lt, w) == freudenthal_dim(family, rank, w)


def test_weyl_dim_integral_gate_trips(monkeypatch):
    # a half-integral coefficient gives the fractional dimension 3/2 for A1
    monkeypatch.setattr(rootsys, "check_dominant", lambda lt, w: (Fraction(1, 2),))
    with pytest.raises(VerificationError) as info:
        weyl_dim(A1, (0,))
    assert info.value.gate == "rootsys.weyl_dim_integral"


def test_root_expansion():
    assert root_expansion(A2, RootLabel(1, 2)) == (1, 1)
    assert root_expansion(C2, RootLabel(1, 1, True)) == (2, 1)
    assert root_expansion(C2, RootLabel(1, 2)) == (1, 1)
    assert root_expansion(C3, RootLabel(1, 2, True)) == (1, 2, 1)
    assert root_expansion(C3, RootLabel(2, 2, True)) == (0, 2, 1)


def test_singular_cartan_matrix_is_a_named_gate(monkeypatch):
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda family, rank: ((1, 1), (1, 1)))
    with pytest.raises(VerificationError) as exc:
        rootsys.weight_numerators("A", 2, (1, 0), 3)
    assert exc.value.gate == "rootsys.cartan_invertible"


@pytest.mark.parametrize("family, ranks", [("A", range(1, 13)), ("C", range(1, 13))])
def test_base_weights_satisfy_the_cartan_property(family, ranks):
    # independent of the closed forms: the Cartan matrix sends the integer
    # numerators to D times the fundamental coefficients, in the source
    # lattice and in the companion one
    for rank in ranks:
        lt = LieType(family, rank)
        d = weight_denominator(lt)
        for w in dominant_weights(rank, 2):
            src, tgt = base_weights(lt, w)
            for m, v, coeffs in (
                (rank, src, w),
                (lt.target_rank, tgt, lifted_coeffs(lt, w)),
            ):
                assert all(type(x) is int for x in v)
                image = tuple(sum(map(mul, row, v)) for row in cartan_matrix(family, m))
                assert image == tuple(d * a for a in coeffs)


def test_fflv_weight_examples():
    # omega_1 of A2 is (2 alpha_1 + alpha_2)/3, omega_2 of C2 is alpha_1 + alpha_2
    zero = (0,) * len(build_labels(A2))
    assert fflv_weight(A2, (1, 0), zero) == (Fraction(2, 3), Fraction(1, 3))

    p = vector_from_labels(A2, {RootLabel(1, 2): 1})  # alpha_1 + alpha_2
    assert fflv_weight(A2, (1, 0), p) == (Fraction(-1, 3), Fraction(-2, 3))

    p = vector_from_labels(C2, {RootLabel(1, 1, True): 1})  # 2 alpha_1 + alpha_2
    assert fflv_weight(C2, (0, 1), p) == (Fraction(-1), Fraction(0))


def test_fflv_weight_rejects_bad_vectors():
    with pytest.raises(ValueError):
        fflv_weight(A2, (1, 0), (0, 0))
    with pytest.raises(ValueError):
        vector_from_labels(A2, {RootLabel(1, 1, True): 1})


def test_string_weight_examples():
    # omega_1 of A3 is (3 alpha_1 + 2 alpha_2 + alpha_3)/4
    n = len(reduced_word(A2))
    omega = (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))
    assert string_weight(A2, (1, 0), (0,) * n) == omega

    # single letter in rank 1: omega_1 - alpha_1 = -alpha_1/2
    assert string_weight(A1, (1,), (1,)) == (Fraction(-1, 2),)

    # the lowest string vector lands on the extremal weight
    # s_2 s_3 s_1 omega_1 = omega_1 - alpha_1 - alpha_2 of A3
    t = (1, 0, 1)  # e_{1,2} + e_{1,1} in descending label coordinates
    extremal = (Fraction(-1, 4), Fraction(-1, 2), Fraction(1, 4))
    assert string_weight(A2, (1, 0), t) == extremal


def test_string_weight_rejects_length_mismatch():
    with pytest.raises(ValueError):
        string_weight(A2, (1, 0), (0, 0))


def test_weight_maps_are_affine_with_weight_free_linear_part():
    for weight_map, lt, n, weights in (
        (fflv_weight, A2, len(build_labels(A2)), ((0, 0), (1, 0), (2, 1))),
        (string_weight, C2, len(reduced_word(C2)), ((0, 0), (1, 0), (0, 2))),
    ):
        for k in range(n):
            bumped = tuple(1 if j == k else 0 for j in range(n))
            deltas = set()
            for w in weights:
                diff = tuple(
                    a - b
                    for a, b in zip(weight_map(lt, w, bumped), weight_map(lt, w, (0,) * n))
                )
                deltas.add(diff)
            assert len(deltas) == 1


def test_lifted_coeffs_positions():
    assert lifted_coeffs(A3, (2, 0, 1)) == (2, 0, 0, 0, 1)
    assert lifted_coeffs(C2, (1, 1)) == (1, 0, 1)


def test_dominant_weights_enumeration():
    assert list(dominant_weights(2, 0)) == [(0, 0)]
    assert list(dominant_weights(2, -1)) == []
    levels = list(dominant_weights(2, 2))
    assert levels == [
        (0, 0),
        (0, 1),
        (1, 0),
        (0, 2),
        (1, 1),
        (2, 0),
    ]
    assert len(list(dominant_weights(4, 3))) == 35
    # streamed unsorted: each level comes out in lexicographic order
    for rank in range(1, 7):
        for level in range(6):
            weights = list(dominant_weights(rank, level))
            assert weights == sorted(weights, key=lambda w: (sum(w), w))
            # stars and bars: C(L + r - 1, r - 1) weights of level L
            top = {w for w in weights if sum(w) == level}
            assert len(top) == math.comb(level + rank - 1, rank - 1)


@st.composite
def _balanced_vectors(draw):
    bound = draw(st.sampled_from([0, 1, 3, 127, 128, 40000, 2**30, 2**62, 2**70]))
    coord = st.integers(-bound, bound)
    n = draw(st.integers(1, 6))
    return bound, draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=8))


@settings(max_examples=200)
@given(_balanced_vectors())
@example((2**16, [[2**16, -(2**16), 5], [-1, 2**15, 0]]))
@example((2**30, [[2**30, -(2**30), 5], [-1, 2**29, 0]]))
@example((2**32, [[2**32, -(2**32), 5], [-1, 2**31, 0]]))
@example((2**62, [[2**62, -(2**62), 5], [-1, 2**61, 0]]))
@example((2**70, [[2**70, -(2**70), 5], [-1, 2**69, 0]]))
def test_pack_is_linear_injective_and_lex_monotone(case):
    # |x| <= bound fits the width; 127 is the last bound of one byte; the
    # widths 8, 16, 32 and 64 decode through struct, 24, 40 and 72 digit by
    # digit, and the examples pin a nonempty draw at 24, 32, 40, 64 and 72
    bound, vecs = case
    b = pack_width(bound)
    assert b % 8 == 0 and bound < 2 ** (b - 1) and (b == 8 or bound >= 2 ** (b - 9))
    vecs = [tuple(v) for v in vecs]
    packed = [pack(v, b) for v in vecs]
    assert unpack(packed, len(vecs[0]) if vecs else 1, b) == vecs
    assert sorted(packed) == [pack(v, b) for v in sorted(vecs)]
    if len(vecs) >= 2 and all(abs(x + y) <= bound for x, y in zip(vecs[0], vecs[1])):
        assert packed[0] + packed[1] == pack(tuple(map(sum, zip(vecs[0], vecs[1]))), b)
