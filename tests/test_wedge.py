"""Exact wedge actions, the equivalence test, and the oracle points."""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflvstring import rootsys, wedge
from fflvstring.crystal import string_points
from fflvstring.degenmap import apply_T, apply_affine, build_matrix, build_translation
from fflvstring.errors import VerificationError
from fflvstring.fflv import fundamental_points
from fflvstring.rootsys import (
    LieType,
    RootLabel,
    build_labels,
    fundamental_weight,
    label_index,
    natural_dim,
    reduced_word,
    vector_from_labels,
)
from fflvstring.wedge import (
    act_monomial,
    act_sequence,
    act_simple,
    commutation_tables,
    highest_wedge,
    minimality_check_A,
    monomial_ops,
    nonannihilation_check,
    oracle_string_points_A,
    restriction_block,
    sim_check_ops,
    unfold_dominates,
    wedge_basis,
)
from conftest import A2, A3, C2, record_calls


def test_act_simple_on_leading_wedge():
    # f_j kills e_1 ^ ... ^ e_i unless j = i, where it moves the last slot
    for i in range(1, 4):
        v = highest_wedge(i)
        for j in range(1, 4):
            out = act_simple(j, v, "A", 3)
            if j == i:
                assert out == wedge_basis(tuple(range(1, i)) + (i + 1,))
            else:
                assert out == {}


def test_act_simple_single_slot():
    assert act_simple(2, wedge_basis((1, 2)), "A", 3) == wedge_basis((1, 3))
    # generator 4 of A3 would step off the 4-dimensional module
    with pytest.raises(ValueError):
        act_simple(4, wedge_basis((1, 3)), "A", 3)


def test_act_simple_repeated_index_vanishes():
    # both slots would land on e_3
    assert act_simple(2, wedge_basis((2, 3)), "A", 3) == {}


def test_act_simple_c_is_unfolded_pair():
    # rank 2: operator 1 moves indices 1 and 3 on the 4-dimensional module
    out = act_simple(1, wedge_basis((1, 3)), "C", 2)
    assert out == {**wedge_basis((2, 3)), **wedge_basis((1, 4))}
    # long operator moves index 2 only
    assert act_simple(2, wedge_basis((2,)), "C", 2) == wedge_basis((3,))


def test_act_monomial_empty_and_two_step():
    v = wedge_basis((1,))
    zero_exp = (0, 0, 0)
    assert act_monomial(A2, zero_exp, v) == v
    # exponents of e_{1,2} + e_{1,1}: written product f_2 f_1, so f_1 acts first
    t = (1, 0, 1)
    assert act_monomial(A2, t, v) == wedge_basis((3,))


def test_act_monomial_square_kills_fundamental_wedge():
    # f_1^2 on e_1 passes through e_2 and dies
    assert act_monomial(A2, (0, 0, 2), wedge_basis((1,))) == {}


def test_serre_free_commutation():
    for family, m in (("A", 4), ("C", 4)):
        dim = natural_dim(family, m)
        for l in range(1, m + 1):
            for j in range(1, m + 1):
                expected = abs(l - j) != 1
                pointwise = all(
                    act_sequence([l, j], wedge_basis((t,)), family, m)
                    == act_sequence([j, l], wedge_basis((t,)), family, m)
                    for t in range(1, dim + 1)
                )
                assert pointwise == expected


def test_sim_check_reflexive():
    x = (1, 0, 1)
    ops = monomial_ops(A2, x)
    assert sim_check_ops(ops, ops, 1, A2.family, A2.target_rank)


@pytest.mark.parametrize("family", ["A", "C"])
def test_sim_check_matches_commutation(family):
    m = 3
    for l in range(1, m + 1):
        for j in range(1, m + 1):
            expected = abs(l - j) != 1
            for i in range(1, m + 1):
                assert sim_check_ops([l, j], [j, l], i, family, m) == expected


@pytest.mark.parametrize("family", ["A", "C"])
def test_commutation_table_matches_sim_check_ops(family):
    # the shared first-factor images give the verdict of every pair l < j
    for m in range(1, 6):
        for i in range(1, m + 1):
            expected = {
                (l, j): sim_check_ops([l, j], [j, l], i, family, m)
                for l, j in combinations(range(1, m + 1), 2)
            }
            assert commutation_tables(family, m)[i - 1] == expected


def test_commutation_tables_build_the_masks_once_and_each_basis_once(monkeypatch):
    # one call serves every power of a rank: one mask build and one basis
    # pass over the powers 0..rank, both at the width of length 2
    calls = []
    for name in ("packed_powers", "step_masks"):
        real = getattr(wedge, name)
        monkeypatch.setattr(
            wedge, name, lambda *args, name=name, real=real: calls.append((name, *args)) or real(*args)
        )
    assert len(commutation_tables("C", 3)) == 3
    assert calls == [("step_masks", "C", 3, 6), ("packed_powers", "C", 3, 3, 6)]


def test_commutation_tables_cut_only_differing_products_into_powers(monkeypatch):
    # one product per ordered pair serves every power: C3's commuting pair
    # (1, 3) has equal products and reads True on all three powers uncut,
    # the adjacent pairs (1, 2) and (2, 3) are cut once per power and side
    calls = record_calls(monkeypatch, wedge, "_masked")
    assert commutation_tables("C", 3) == [{(1, 2): False, (1, 3): True, (2, 3): False}] * 3
    assert len(calls) == 2 * 3 * 2


def test_commutation_tables_read_each_power_on_its_own_digits(monkeypatch):
    # A2's powers 1 and 2 hold the digits v = 1, 2, 4 and v = 3, 5, 6 (keys
    # 2v).  Two products that differ, with one ratio 2 on the digits of
    # power 1 and ratios 1 and 2 on those of power 2: only power 1 has a
    # shared scalar, and the offset 3 that only fy has holds power 2 alone.
    # The first two steps build the one-factor images, the next two the
    # products [1, 2] and [2, 1]
    w = 6
    fx = {1: 1 << w | 1 << 2 * w | 1 << 3 * w | 1 << 5 * w, 2: 1 << 4 * w}
    fy = {1: 2 << w | 2 << 2 * w | 1 << 3 * w | 2 << 5 * w, 2: 2 << 4 * w, 3: 1 << 6 * w}
    images = iter([{}, {}, fx, fy])
    monkeypatch.setattr(wedge, "_step", lambda *args: next(images))
    assert commutation_tables("A", 2) == [{(1, 2): True}, {(1, 2): False}]


def test_sim_counterexample_wedge():
    # the discriminating wedge for consecutive operators: i > l branch
    m, l, i = 3, 1, 2
    w = wedge_basis((1, 2) if i <= l else tuple(range(1, l + 2)) + (l + 3,))
    lhs = act_sequence([l + 1, l], w, "A", m)  # f_{l+1} f_l
    rhs = act_sequence([l, l + 1], w, "A", m)  # f_l f_{l+1}
    assert lhs == {} and rhs


def test_coefficients_are_integers():
    # f_1 f_1 on e_1 ^ e_3 of C2: both unfolded paths reach e_2 ^ e_4
    out = act_sequence([1, 1], wedge_basis((1, 3)), "C", 2)
    assert out == {key: 2 for key in wedge_basis((2, 4))}
    assert all(type(coeff) is int for coeff in out.values())


def _ratio(f, g):
    """The Fraction r with r * f = g for wedge vectors not both zero, or None."""
    if f.keys() != g.keys():
        return None
    ratios = {Fraction(g[key], f[key]) for key in f}
    return ratios.pop() if len(ratios) == 1 else None


def _stepwise_sim(ops_x, ops_y, i, family, rank):
    """Reference: both products acted out on every basis wedge, one at a time."""
    r = None
    for t in combinations(range(1, natural_dim(family, rank) + 1), i):
        fx = act_sequence(ops_x, wedge_basis(t), family, rank)
        fy = act_sequence(ops_y, wedge_basis(t), family, rank)
        if not fx and not fy:
            continue
        ratio = _ratio(fx, fy)
        if ratio is None or (r is not None and r != ratio):
            return False
        r = ratio
    return r is None or r > 0


@st.composite
def _sim_cases(draw):
    # lengths 0-3 over ranks <= 4 draw equal, adjacent and distant indices;
    # a permuted second sequence reaches the shared-ratio test
    family = draw(st.sampled_from("AC"))
    rank = draw(st.integers(1, 4))
    i = draw(st.integers(1, natural_dim(family, rank)))
    ops_x = draw(st.lists(st.integers(1, rank), max_size=3))
    ops_y = draw(
        st.one_of(st.permutations(ops_x), st.lists(st.integers(1, rank), max_size=3))
    )
    return ops_x, ops_y, i, family, rank


@settings(max_examples=300)
@given(_sim_cases())
def test_sim_check_ops_matches_stepwise_reference(case):
    ops_x, ops_y, i, family, rank = case
    expected = _stepwise_sim(*case)
    assert sim_check_ops(*case) == expected
    # the commutation sweep tests each unordered pair once on this symmetry
    assert sim_check_ops(ops_y, ops_x, i, family, rank) == expected


def test_sim_check_ops_shared_ratio_other_than_one():
    # on C3, f1 f1 f2 f3 and f1 f2 f1 f3 send e1 ^ e3 to 2 and 1 times
    # e2 ^ e6 and kill every other basis wedge of the second power
    x, y = (1, 1, 2, 3), (1, 2, 1, 3)
    v = wedge_basis((1, 3))
    assert act_sequence(x, v, "C", 3) == {key: 2 for key in wedge_basis((2, 6))}
    assert act_sequence(y, v, "C", 3) == wedge_basis((2, 6))
    assert sim_check_ops(x, y, 2, "C", 3) and sim_check_ops(y, x, 2, "C", 3)
    assert _stepwise_sim(x, y, 2, "C", 3)


def test_sim_check_ops_digits_hold_the_largest_coefficient():
    # on C3, f1 f1 f2 f2 reaches coefficient 4 on the third power, where
    # f1 f2 f1 f2 reaches 2: ratio 1/2, longer than the strategy's products
    x, y = (1, 1, 2, 2), (1, 2, 1, 2)
    bases = [wedge_basis(t) for t in combinations(range(1, 7), 3)]
    assert max(c for v in bases for c in act_sequence(x, v, "C", 3).values()) == 4
    assert max(c for v in bases for c in act_sequence(y, v, "C", 3).values()) == 2
    expected = _stepwise_sim(x, y, 3, "C", 3)
    assert expected
    assert sim_check_ops(x, y, 3, "C", 3) == expected
    assert sim_check_ops(y, x, 3, "C", 3) == expected


def test_proportional_needs_one_shared_ratio():
    # each offset on its own is proportional, with ratios 2 and 1: e2 -> e3
    # sits at offset e3 - e2, e3 -> e4 at offset e4 - e3, digits 4 bits wide
    (e2,), (e3,), (e4,) = wedge_basis((2,)), wedge_basis((3,)), wedge_basis((4,))
    fx = {e3 - e2: 1 << 4 * e2, e4 - e3: 1 << 4 * e3}
    assert not wedge._proportional(fx, {e3 - e2: 2 << 4 * e2, e4 - e3: 1 << 4 * e3}, 4)
    assert wedge._proportional(fx, {e3 - e2: 2 << 4 * e2, e4 - e3: 2 << 4 * e3}, 4)


def test_sim_check_ops_needs_one_shared_ratio(monkeypatch):
    # A1 has the two basis wedges e1 and e2 on its first power; x and y act
    # on e1, then on e2
    cases = [
        # each basis wedge on its own is proportional, with ratios 2 and 1
        ([{4: 1}, {4: 2}, {8: 1}, {8: 1}], False),
        # one wedge whose two coefficients have ratios 2 and 1
        ([{4: 1, 8: 1}, {4: 2, 8: 1}, {}, {}], False),
        # one ratio 2 on every coefficient of every wedge
        ([{4: 1, 8: 3}, {4: 2, 8: 6}, {8: 1}, {8: 2}], True),
    ]
    for images, expected in cases:
        images = iter(images)
        monkeypatch.setattr(wedge, "act_sequence", lambda *args: next(images))
        assert sim_check_ops([1], [1], 1, "A", 1) == expected


def test_act_sequence_checks_every_factor():
    # f_5 is no generator of A2, even where f_1 has already killed e_2
    assert act_sequence([1], wedge_basis((2,)), "A", 2) == {}
    for ops in ([5], [5, 1], [1, 5]):
        with pytest.raises(ValueError):
            act_sequence(ops, wedge_basis((2,)), "A", 2)


def test_sim_check_ops_rejects_out_of_range_operator():
    with pytest.raises(ValueError):
        sim_check_ops([0], [1], 1, "A", 2)


def test_sim_check_ops_outside_the_powers():
    # a power above the dimension is the zero space, where every product agrees
    assert sim_check_ops([], [], 4, "A", 2) and sim_check_ops([1], [2], 4, "A", 2)
    # where no wedge is acted on, the factors are still checked
    with pytest.raises(ValueError):
        sim_check_ops([3], [1], 4, "A", 2)
    with pytest.raises(ValueError):
        sim_check_ops([], [], -1, "A", 2)


@pytest.mark.parametrize("family", ["A", "C"])
def test_packed_generators_decode_to_act_simple(family):
    # digit v of the entry at offset o is the coefficient of the wedge keyed
    # 2(v + o) in f_j of the wedge keyed 2v; packing act_simple on every
    # basis wedge must give every digit, zeros too, in the one-factor image
    # that commutation_tables builds, on each power and on all at once
    width = 4
    for rank in (1, 2, 3):
        dim = natural_dim(family, rank)
        masks = wedge.step_masks(family, rank, width)
        bases = wedge.packed_powers(family, rank, dim, width)
        assert len(bases) == dim + 1
        for powers in (*([i] for i in range(dim + 1)), range(dim + 1)):
            basis = {0: sum(bases[i] for i in powers)}
            for j in range(1, rank + 1):
                expected = {}
                for i in powers:
                    for t in combinations(range(1, dim + 1), i):
                        (key,) = wedge_basis(t)
                        for moved, c in act_simple(j, wedge_basis(t), family, rank).items():
                            o = (moved - key) // 2
                            expected[o] = expected.get(o, 0) + (c << width * (key // 2))
                steps = wedge._steps(j, family, rank)
                assert wedge._step(basis, steps, masks, width) == expected
        # the rank generators are all there are
        with pytest.raises(ValueError):
            wedge._steps(rank + 1, family, rank)


def test_products_and_tables_keep_no_memo():
    # the commutation tables build their bases and masks per call, and the
    # equivalence test acts wedge by wedge: the oracle's string points are
    # the module's one memo, neither reads a memo of any module, and no
    # module dict or closure carries work from one call into the next
    memos = {
        f"{module.__name__}.{name}": value
        for module in (wedge, rootsys)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }
    assert [name for name in memos if name.startswith("fflvstring.wedge.")] == [
        "fflvstring.wedge.oracle_string_points_A"
    ]
    before = {name: memo.cache_info() for name, memo in memos.items()}
    assert sim_check_ops([1, 3], [3, 1], 2, "C", 3)
    assert commutation_tables("C", 3)[1] == {(1, 2): False, (1, 3): True, (2, 3): False}
    assert {name: memo.cache_info() for name, memo in memos.items()} == before
    state = [
        name
        for name, value in vars(wedge).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert state == []
    assert sim_check_ops.__closure__ is None
    assert commutation_tables.__closure__ is None


def test_nonannihilation_zero_point():
    for lt, i in ((A3, 2), (C2, 2)):
        zero = (0,) * len(build_labels(lt))
        assert nonannihilation_check(lt, i, zero)


def test_checks_refuse_a_fundamental_weight_that_does_not_exist():
    # A3 has omega_1..omega_3 only: no other index stands for the zero weight
    zero = (0,) * len(build_labels(A3))
    for i in (0, 4, 7):
        with pytest.raises(ValueError):
            nonannihilation_check(A3, i, zero)
    with pytest.raises(ValueError):
        minimality_check_A(A3, 0, (0, 0, 0, 0, 0, 1))


@pytest.mark.parametrize("family,max_rank", [("A", 4), ("C", 3)])
def test_nonannihilation_all_fundamental_points(family, max_rank):
    for n in range(1 if family == "A" else 2, max_rank + 1):
        lt = LieType(family, n)
        for i in range(1, n + 1):
            assert all(nonannihilation_check(lt, i, p) for p in fundamental_points(lt, i))


def test_support_violation_annihilates():
    # adding a unit outside the restriction block must kill the action
    lt, i = A3, 2
    w = fundamental_weight(lt.rank, i)
    p = next(p for p in fundamental_points(lt, i) if any(p))
    image = list(apply_T(lt, w, p))
    outside = label_index(lt)[RootLabel(3, 3)]
    assert outside not in restriction_block(lt, i)
    image[outside] += 1
    assert act_monomial(lt, tuple(image), highest_wedge(2 * i - 1)) == {}


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_minimality_all_fundamental_points(rank):
    lt = LieType("A", rank)
    for i in range(1, rank + 1):
        for p in fundamental_points(lt, i):
            assert minimality_check_A(lt, i, p)


def test_minimality_rejects_shifted_competitor():
    # the weight class of f_3 on (A3, omega_2) has a second nonzero actor,
    # one column to the left; it is strictly larger in the neglex order
    lt, i = A3, 2
    w = fundamental_weight(lt.rank, i)
    p = vector_from_labels(lt, {RootLabel(2, 2): 1})
    image = apply_T(lt, w, p)
    assert image == vector_from_labels(lt, {RootLabel(1, 3): 1})
    competitor = vector_from_labels(lt, {RootLabel(2, 2): 1})
    wedge = highest_wedge(2 * i - 1)
    assert act_monomial(lt, competitor, wedge)
    assert competitor < image  # image is the lex-max, hence neglex-min
    assert minimality_check_A(lt, i, p)


def test_minimality_false_branches():
    # the competitor above acts nonzero but is not minimal; the second image
    # is nonnegative but kills the highest wedge
    lt, i = A3, 2
    w, wedge = fundamental_weight(lt.rank, i), highest_wedge(2 * i - 1)
    competitor = vector_from_labels(lt, {RootLabel(2, 2): 1})
    mat, trans = build_matrix(lt), build_translation(lt, w)
    images = {p: apply_affine(mat, trans, p) for p in product((-1, 0, 1), repeat=6)}
    p = next(p for p, im in images.items() if im == competitor)
    q = next(
        q for q, im in images.items() if min(im) >= 0 and not act_monomial(lt, im, wedge)
    )
    assert not minimality_check_A(lt, i, p) and not minimality_check_A(lt, i, q)


@pytest.mark.parametrize("lt", [A2, A3])
def test_minimality_matches_reference(lt):
    # reference: the image acts nonzero and is the lex-max among the nonzero
    # 0/1 actors on the restriction block with its letter histogram
    word = reduced_word(lt)

    def hist(x):
        return tuple(sorted(l for l, e in zip(word, x) for _ in range(e)))

    for i in range(1, lt.rank + 1):
        w, wedge = fundamental_weight(lt.rank, i), highest_wedge(2 * i - 1)
        outside = [k for k, lab in enumerate(build_labels(lt)) if not lab.row <= i <= lab.col]
        best = {}
        for x in product((0, 1), repeat=len(word)):
            if not any(x[k] for k in outside) and act_monomial(lt, x, wedge):
                best[hist(x)] = max(best.get(hist(x), x), x)
        mat, trans = build_matrix(lt), build_translation(lt, w)
        for p in product((-1, 0, 1), repeat=len(word)):
            image = apply_affine(mat, trans, p)
            if min(image) < 0:
                with pytest.raises(VerificationError):
                    minimality_check_A(lt, i, p)
                continue
            minimal = bool(act_monomial(lt, image, wedge)) and best.get(hist(image)) == image
            assert minimality_check_A(lt, i, p) == minimal


@pytest.mark.parametrize("rank", range(1, 6))
def test_oracle_matches_exhaustive_block_enumeration(rank):
    # reference: every 0/1 vector on the block, acted out in full through
    # act_sequence with no pruning, and the lex-max nonzero actor per histogram
    lt = LieType("A", rank)
    word = reduced_word(lt)
    for i in range(1, rank + 1):
        block, v = restriction_block(lt, i), highest_wedge(2 * i - 1)
        best = {}
        for bits in product((0, 1), repeat=len(block)):
            ones = {k for k, bit in zip(block, bits) if bit}
            x = tuple(int(k in ones) for k in range(len(word)))
            if act_sequence(monomial_ops(lt, x), v, "A", lt.target_rank):
                hist = tuple(sorted(word[k] for k in ones))
                best[hist] = max(best.get(hist, x), x)
        assert oracle_string_points_A(lt, i) == tuple(sorted(best.values()))


@pytest.mark.parametrize("rank", range(1, 9))
def test_oracle_equals_crystal_string_points(rank):
    lt = LieType("A", rank)
    for i in range(1, rank + 1):
        assert oracle_string_points_A(lt, i) == string_points(lt, fundamental_weight(rank, i))


def test_unfold_dominance_exhaustive_rank2():
    size = len(build_labels(A3))
    for bits in product((0, 1), repeat=size):
        for i in (1, 2):
            assert unfold_dominates(bits, 2, 2 * i - 1)


def test_unfold_dominance_fails_when_a_fiber_is_dropped(monkeypatch):
    # no vector the sweeps reach breaks dominance, so the False branch is
    # shown on a fold that loses the fiber of one label: on A1 the monomial
    # e_1 -> e_2 then has no folded C1 action to dominate it
    real = wedge.fold_vector
    monkeypatch.setattr(wedge, "fold_vector", lambda vec, m: (0,) + real(vec, m)[1:])
    assert unfold_dominates((1,), 1, 1) is False
    assert unfold_dominates((0,), 1, 1) is True


def test_wedge_constructions_refuse_malformed_input():
    # the restriction block, the minimality check and the oracle are type-A
    # notions, the oracle's index lies in 1..rank, and a monomial has one
    # exponent per letter of the word
    with pytest.raises(ValueError, match="restriction block is a type-A notion"):
        restriction_block(C2, 1)
    with pytest.raises(ValueError, match="minimality sweep is implemented for type A only"):
        minimality_check_A(C2, 1, (0,) * 4)
    with pytest.raises(ValueError, match="oracle is a type-A construction"):
        oracle_string_points_A(C2, 1)
    with pytest.raises(ValueError, match="fundamental index 4 out of range"):
        oracle_string_points_A(A3, 4)
    with pytest.raises(ValueError, match="exponent vector must have length 6"):
        monomial_ops(A3, (0,) * 5)


def test_unfold_dimension_gate_trips(monkeypatch):
    # companion modules of A_{2m-1} and C_m of different dimensions
    monkeypatch.setattr(
        "fflvstring.rootsys.natural_dim",
        lambda family, rank: rank + 1 if family == "A" else 2 * rank + 1,
    )
    with pytest.raises(VerificationError) as info:
        unfold_dominates((0,), 1, 1)
    assert info.value.gate == "wedge.unfold_dimension"


def test_wedge_basis_validates_input():
    with pytest.raises(ValueError):
        wedge_basis((2, 1))
    with pytest.raises(ValueError):
        wedge_basis((1, 1))
