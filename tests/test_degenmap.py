"""The affine map: matrices, translations, folding, weight twist."""

from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflvstring import degenmap
from fflvstring.degenmap import (
    WeightTwist,
    apply_T,
    apply_affine,
    build_matrix,
    build_translation,
    embed_point_in_a,
    fold_index,
    fold_label,
    fold_vector,
    packed_matrix,
    scaled_twist_solve,
    weight_twist_solve,
)
from fflvstring.errors import VerificationError
from fflvstring.fflv import points
from fflvstring.rootsys import (
    LieType,
    RootLabel,
    base_weights,
    build_labels,
    cartan_matrix,
    dominant_weights,
    fflv_weight,
    fundamental_weight,
    label_index,
    letter_histogram,
    reduced_word,
    root_delta,
    string_weight,
    unpack,
    vector_from_labels,
    weight_denominator,
)
from conftest import A1, A2, A3, A4, C1, C2, C3, record_calls
from oracles import slack_inverse, twist_oracle


def test_matrix_rank_one_base_cases():
    assert build_matrix(A1) == ((-1,),)
    assert build_matrix(C1) == ((-1,),)


@pytest.mark.parametrize("lt", [A3, C2])
def test_entry_range_gate_rejects_repeated_letter(monkeypatch, lt):
    # a word that repeats its second letter is not reduced, and the walk
    # along it leaves the allowed entries (A3 gives [1, 2])
    word = reduced_word(lt)
    bad = word[:2] + (word[1],) + word[3:]
    monkeypatch.setattr(degenmap, "reduced_word", lambda lt: bad)
    with pytest.raises(VerificationError) as info:
        packed_matrix(lt)
    assert info.value.gate == "degenmap.entry_range"


@pytest.fixture
def fresh_simple_roots():
    # the walk reads the Cartan matrix through this cache
    degenmap._simple_roots.cache_clear()
    yield
    degenmap._simple_roots.cache_clear()


@pytest.mark.parametrize("lt", [A2, A3, A4])
def test_entry_range_gate_rejects_minus_two_in_type_a(monkeypatch, fresh_simple_roots, lt):
    # the type-C Cartan matrix puts -2 entries into a type-A matrix, which
    # lie in the type-C range but not in the type-A one
    real = degenmap.cartan_matrix
    monkeypatch.setattr(degenmap, "cartan_matrix", lambda family, rank: real("C", rank))
    with pytest.raises(VerificationError) as info:
        packed_matrix(lt)
    assert info.value.gate == "degenmap.entry_range"
    assert "entries [-2]" in str(info.value)


@pytest.mark.parametrize("lt, old, new", [(A3, -1, -100), (C2, -1, -100), (C2, -2, -3)])
def test_entry_range_gate_names_the_true_entries(monkeypatch, fresh_simple_roots, lt, old, new):
    # a Cartan matrix of no finite type: the digit width rests on
    # 2 + 2*N*max|a_ij|, not on the entries being root pairings, so the gate
    # names the true entries of a column-by-column walk (with -100, A3 and
    # C2 reach -19998 and -10000, past one byte; C2 with -3 for -2 leaves
    # one digit 3)
    real = degenmap.cartan_matrix
    word = reduced_word(lt)
    assert slack_inverse(word, real(lt.family, lt.target_rank)) == build_matrix(lt)

    def cartan(family, rank):
        return tuple(tuple(new if a == old else a for a in row) for row in real(family, rank))

    monkeypatch.setattr(degenmap, "cartan_matrix", cartan)
    degenmap._simple_roots.cache_clear()
    allowed = {0, -1} if lt.family == "A" else {0, -1, -2}
    bad = set().union(*slack_inverse(word, cartan(lt.family, lt.target_rank))) - allowed
    with pytest.raises(VerificationError) as info:
        packed_matrix(lt)
    assert info.value.gate == "degenmap.entry_range"
    assert f"entries {sorted(bad)} outside" in str(info.value)


@pytest.mark.parametrize("lt", [A2, C2])
@pytest.mark.parametrize("cell", ["diagonal", "below"])
def test_unitriangular_gate(monkeypatch, lt, cell):
    # entries in the allowed range, but a 0 on the diagonal or a -1 below
    # it, in one row at a time: the matrix is then not unimodular, and need
    # not be injective.  The one walk returns row k packed, with digit j at
    # the place p[j] it was given.
    real = degenmap._walk
    for k in range(1 if cell == "below" else 0, len(reduced_word(lt))):

        def walk(lt, nu, p, k=k):
            q = real(lt, nu, p)
            q[k] += p[k] if cell == "diagonal" else -p[k - 1]
            return q

        monkeypatch.setattr(degenmap, "_walk", walk)
        with pytest.raises(VerificationError) as info:
            packed_matrix(lt)
        assert info.value.gate == "degenmap.unitriangular"


def test_translation_c2_omega2_fixture():
    expected = vector_from_labels(
        C2,
        {RootLabel(1, 2): 2, RootLabel(2, 2): 1, RootLabel(1, 1, True): 1},
    )
    assert build_translation(C2, (0, 1)) == expected


def test_apply_T_zero_point_gives_translation():
    for lt, w in ((A3, (0, 1, 0)), (C2, (0, 1))):
        zero = (0,) * len(build_labels(lt))
        assert apply_T(lt, w, zero) == build_translation(lt, w)


def test_apply_T_rank2_hand_cases():
    # descending labels of A2: (1,2), (2,2), (1,1)
    assert apply_T(A2, (1, 0), (0, 0, 1)) == (0, 0, 0)
    assert apply_T(A2, (1, 0), (1, 0, 0)) == (0, 0, 1)


def test_apply_T_nonnegativity_gate():
    outside = (5, 0, 0)  # far outside the polytope for omega_1
    with pytest.raises(VerificationError) as info:
        apply_T(A2, (1, 0), outside)
    assert info.value.gate == "degenmap.nonnegative_image"
    # the affine map itself is defined on every vector
    assert apply_affine(build_matrix(A2), build_translation(A2, (1, 0)), outside) == (-4, 0, 1)


def test_malformed_input_raises_value_error():
    # a vector of the wrong length, and a twist fit with no pair to fit
    with pytest.raises(ValueError, match="must have length 3"):
        apply_T(A2, (1, 0), (0, 0))
    with pytest.raises(ValueError, match="must have length 6"):
        fold_vector((0,) * 4, 2)
    with pytest.raises(ValueError, match="at least one weight pair"):
        scaled_twist_solve(A2, 1, [])


def test_images_of_chain_points_are_nonnegative():
    for lt, level in ((A3, 2), (C2, 2), (C3, 1)):
        for w in dominant_weights(lt.rank, level):
            for p in points(lt, w):
                image = apply_T(lt, w, p)
                assert all(x >= 0 for x in image)


def test_fold_label_examples():
    assert fold_label(1, 2, 3) == RootLabel(1, 2)
    assert fold_label(2, 5, 3) == RootLabel(1, 2, True)
    assert fold_label(1, 3, 2) == RootLabel(1, 1, True)
    assert fold_label(2, 3, 2) == RootLabel(1, 2)
    with pytest.raises(ValueError):
        fold_label(3, 2, 3)
    with pytest.raises(ValueError):
        fold_label(1, 6, 3)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_fold_inverts_canonical_embedding(rank):
    from fflvstring.rootsys import column_key

    lt = LieType("C", rank)
    for lab in build_labels(lt):
        assert fold_label(lab.row, column_key(lab, rank), rank) == lab


def test_fold_vector_doubles_colliding_fiber():
    # t for (A3, omega_2) folds onto t for (C2, omega_2), doubling e_{1,2}
    folded = fold_vector(build_translation(A3, (0, 1, 0)), 2)
    assert folded == build_translation(C2, (0, 1))


@pytest.mark.parametrize("m", range(1, 7))
def test_embed_is_the_section_of_the_fold(m):
    # e_k of H(C_m) lands on the A label (row, column key) of its label, the
    # one of its fiber with row + col <= 2m, and folds back to e_k
    from fflvstring.rootsys import column_key

    ltc, lta = LieType("C", m), LieType("A", 2 * m - 1)
    target = label_index(lta)
    for k, lab in enumerate(build_labels(ltc)):
        unit = tuple(int(j == k) for j in range(m * m))
        place = target[RootLabel(lab.row, column_key(lab, m))]
        assert embed_point_in_a(ltc, unit) == tuple(int(j == place) for j in range(len(target)))
    p = tuple(range(1, m * m + 1))
    assert fold_vector(embed_point_in_a(ltc, p), m) == p


@pytest.mark.parametrize("m", range(1, 7))
def test_fold_index_is_fold_label(m):
    target = label_index(LieType("C", m))
    labels = build_labels(LieType("A", 2 * m - 1))
    assert fold_index(m) == tuple(target[fold_label(lab.row, lab.col, m)] for lab in labels)


@pytest.mark.parametrize(
    "lt", [LieType("A", n) for n in range(1, 13)] + [LieType("C", n) for n in range(1, 9)]
)
def test_fundamental_translations_walk_every_omega_at_once(lt):
    # the walk is linear in the weight: at a_i = 2^(8(i-1)) it holds t(omega_i)
    # as byte i - 1; ``unpack`` lists byte n - 1 first, so its rows are
    # transposed and reversed
    n = lt.rank
    expected = tuple(build_translation(lt, fundamental_weight(n, i)) for i in range(1, n + 1))
    lanes = build_translation(lt, [1 << 8 * d for d in range(n)])
    assert tuple(zip(*unpack(lanes, n, 8)))[::-1] == expected


@pytest.mark.parametrize("family", ["A", "C"])
def test_simple_roots_read_the_whole_cartan_column(family):
    # the band read of _simple_roots misses no nonzero entry of a column
    for rank in range(1, 11):
        m = cartan_matrix(family, rank)
        column = tuple(
            tuple((j, row[i]) for j, row in enumerate(m) if row[i]) for i in range(rank)
        )
        assert degenmap._simple_roots(family, rank) == column


def test_apply_T_walks_each_point_once(monkeypatch):
    # the image of a point is one walk, which decodes no matrix (so no gate
    # of packed_matrix runs), and a list weight maps like the tuple weight
    def refused(lt):
        raise AssertionError("apply_T decodes the matrix")

    calls = record_calls(monkeypatch, degenmap, "_walk")
    monkeypatch.setattr(degenmap, "packed_matrix", refused)
    w = (0, 1, 0)
    chain = points(A3, w)
    images = [apply_T(A3, w, p) for p in chain]
    assert [args[0] for args in calls] == [A3] * len(chain)
    assert [apply_T(A3, list(w), p) for p in chain] == images
    assert build_translation(A3, [0, 1, 0]) == build_translation(A3, w)


def _twist_pairs(lt, w):
    return [
        (fflv_weight(lt, w, p), string_weight(lt, w, apply_T(lt, w, p)))
        for p in points(lt, w)
    ]


@pytest.mark.parametrize("lt, w", [(A2, (1, 0)), (A3, (1, 1, 1))], ids=["A2-1,0", "A3-1,1,1"])
def test_weight_twist_fits_all_pairs(lt, w):
    twist, witness = weight_twist_solve(lt, w, _twist_pairs(lt, w))
    assert witness is None
    for src, tgt in _twist_pairs(lt, w):
        rows = zip(twist.matrix, twist.shift)
        assert tuple(sum(map(mul, row, tgt)) + s for row, s in rows) == src


def test_weight_twist_trivial_weight():
    twist, witness = weight_twist_solve(A2, (0, 0), _twist_pairs(A2, (0, 0)))
    assert witness is None
    assert not twist.unique  # one pair cannot pin the map down


def test_weight_twist_unique_iff_weights_span():
    # the adjoint weights of A2 affinely span the companion lattice,
    # the three weights of omega_1 do not
    spanning, _ = weight_twist_solve(A2, (1, 1), _twist_pairs(A2, (1, 1)))
    assert spanning.unique
    flat, _ = weight_twist_solve(A2, (1, 0), _twist_pairs(A2, (1, 0)))
    assert not flat.unique


def test_weight_twist_reports_witness_on_corrupted_pairs():
    pairs = _twist_pairs(A2, (1, 0))
    src, tgt = pairs[0]
    bad = tuple(x + 1 for x in src)
    corrupted = pairs + [(bad, tgt)]
    twist, witness = weight_twist_solve(A2, (1, 0), corrupted)
    assert twist is None
    assert witness == (bad, tgt)


TWIST_CASES = [
    (A1, (2,)), (A2, (0, 0)), (A2, (1, 0)), (A2, (1, 1)), (A2, (2, 1)),
    (A3, (0, 1, 0)), (A3, (1, 0, 1)), (A3, (1, 1, 0)), (A3, (1, 1, 1)),
    (C2, (0, 1)), (C2, (1, 1)), (C2, (2, 0)),
]
_PAIRS = {}


@settings(max_examples=200)
@given(st.data())
def test_weight_twist_matches_full_system_oracle(data):
    lt, w = data.draw(st.sampled_from(TWIST_CASES))
    if (lt, w) not in _PAIRS:
        _PAIRS[lt, w] = _twist_pairs(lt, w)
    real = _PAIRS[lt, w]
    # lists long enough to run past a full basis: dependent rows after the
    # last pivot, pivots after dependent rows
    size = data.draw(st.integers(1, 64))
    picks = data.draw(
        st.lists(st.integers(0, len(real) - 1), min_size=size, max_size=size)
    )
    pairs = [real[i] for i in picks]
    # up to two single-entry corruptions, so that two source coordinates can
    # break at different pairs
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(pairs) - 1))
        side = data.draw(st.integers(0, 1))
        vec = list(pairs[k][side])
        c = data.draw(st.integers(0, len(vec) - 1))
        vec[c] += data.draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        pair = list(pairs[k])
        pair[side] = tuple(vec)
        pairs[k] = tuple(pair)
    fit, witness = twist_oracle(lt.target_rank, pairs)
    expected = (fit and WeightTwist(*fit), witness)
    assert weight_twist_solve(lt, w, pairs) == expected
    # the integer entry at any multiple k * L of the lcm L of the denominators
    scale = data.draw(st.sampled_from([1, 2, 3, 5])) * lcm(
        *(x.denominator for pair in pairs for v in pair for x in v)
    )
    scaled = [tuple(tuple(int(x * scale) for x in v) for v in pair) for pair in pairs]
    assert degenmap.scaled_twist_solve(lt, scale, scaled) == expected


def _unit_pairs(lt, w, mat):
    """The integer pairs over weight_denominator(lt) of 0 and of each unit
    point of P(w), in lex order, each weighed through its own image."""
    d = weight_denominator(lt)
    src, tgt = base_weights(lt, w)
    trans = build_translation(lt, w)
    return [
        (
            tuple(y - d * x for y, x in zip(src, root_delta(lt, p))),
            tuple(
                y - d * x for y, x in zip(tgt, letter_histogram(lt, apply_affine(mat, trans, p)))
            ),
        )
        for p in sorted(p for p in points(lt, w) if sum(p) <= 1)
    ]


SUPPORT_TYPES = (A1, A2, A3, A4, C2, C3)
_SUPPORT_WITNESSES = []


@settings(max_examples=100)
@given(st.data())
def _support_path_matches_full_pair_list(data):
    lt = data.draw(st.sampled_from(SUPPORT_TYPES))
    w = data.draw(st.sampled_from(list(dominant_weights(lt.rank, 3))))
    mat = [list(row) for row in build_matrix(lt)]
    for _ in range(data.draw(st.integers(0, 4))):
        r, c = data.draw(st.tuples(st.integers(0, len(mat) - 1), st.integers(0, len(mat) - 1)))
        mat[r][c] += data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    mat = tuple(map(tuple, mat))
    d, pairs = weight_denominator(lt), _unit_pairs(lt, w, mat)
    src0, tgt0 = pairs[0]
    support = tuple(i for i, a in enumerate(w, start=1) if a)
    fit = degenmap.support_twist_solve(lt, mat, support, (*tgt0, d, *src0))
    assert fit == degenmap.scaled_twist_solve(lt, d, pairs)
    _SUPPORT_WITNESSES.append(fit[1] is not None)


def test_support_path_matches_the_full_pair_list(fresh_twist_memos):
    # the cached per-support basis with this case's zero row gives the twist
    # and witness of the whole list of 0 and the unit points, on the trusted
    # matrix and on matrices moved by +-1..3 in up to four entries
    _SUPPORT_WITNESSES.clear()
    _support_path_matches_full_pair_list()
    assert 4 * sum(_SUPPORT_WITNESSES) >= len(_SUPPORT_WITNESSES) > 0
    assert not all(_SUPPORT_WITNESSES)
