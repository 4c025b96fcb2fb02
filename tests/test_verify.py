"""Verification pipelines: reports, dilations, grids."""

import hashlib
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflvstring import cli, crystal, degenmap, rootsys, verify
from fflvstring.crystal import string_points
from fflvstring.degenmap import (
    apply_affine,
    build_matrix,
    build_translation,
    fold_vector,
    packed_matrix,
)
from fflvstring.errors import VerificationError
from fflvstring.fflv import points
from fflvstring.rootsys import (
    LieType,
    build_labels,
    dominant_weights,
    fflv_weight,
    fundamental_weight,
    reduced_word,
    string_weight,
    weight_denominator,
    weyl_dim,
)
from fflvstring.verify import (
    WITNESS_CAP,
    all_passed,
    check_main,
    comm_sweep,
    fold_sweep,
    reports_to_json,
    run_grid,
    unimodular_sweep,
)
from conftest import (
    A1, A2, A3, A4, C2, C3, TWIST_MEMOS, WALK_MEMOS, corrupted_matrix, record_calls,
    traced_memory,
)
from oracles import twist_oracle


def test_check_main_small_cases():
    for lt, w, count in (
        (A1, (1,), 2),
        (A2, (1, 0), 3),
        (C2, (0, 1), 5),
        (C3, (0, 1, 0), 14),
    ):
        rep = check_main(lt, w)
        assert rep.status == "ok"
        assert rep.equal
        assert rep.fflv_count == rep.string_count == rep.weyl_dim == count
        assert rep.missing == () and rep.extra == ()
        assert rep.weight_twist is not None


def test_report_fails_when_both_counts_miss_the_weyl_dimension():
    rep = check_main(A2, (1, 1))
    assert rep.status == "ok"
    # T(P) = Q and |P| = |Q|, but not the dimension of the module
    assert replace(rep, weyl_dim=rep.weyl_dim + 1).status == "failed"


def test_check_main_with_corrupted_matrix_reports_witnesses():
    rep = check_main(A2, (1, 0), matrix=corrupted_matrix(A2))
    assert rep.status == "failed"
    assert not rep.equal
    assert rep.missing_total + rep.extra_total > 0
    assert rep.missing or rep.extra


def test_override_that_merges_images_reports_them():
    # a zero column maps distinct chain points to one image, so |T(P)| < dim;
    # the walk still counts against the Weyl dimension, and the case reports
    mat = tuple((0,) + row[1:] for row in build_matrix(A2))
    rep = check_main(A2, (1, 1), matrix=mat)
    assert rep.status == "failed" and rep.missing_total > 0
    assert rep.fflv_count == rep.string_count == rep.weyl_dim == 8


def test_corrupted_a4_matrix_twist_witness():
    # the first pair that breaks the lowest inconsistent source coordinate
    rep = check_main(A4, (1, 1, 1, 1), matrix=corrupted_matrix(A4))
    assert rep.status == "failed"
    assert rep.weight_twist is None
    src, tgt = rep.twist_witness
    assert src == (1, 2, 2, 1)
    assert tgt == (1, 1, 0, 0, 0, 1, 1)
    assert all(type(x) is Fraction for x in src + tgt)


def test_report_lists_ten_witnesses_per_direction():
    # the corrupted A3 matrix at (1, 1, 1) has 24 witnesses each way; the
    # cap is the literal 10, not the constant the report is built from
    rep = check_main(A3, (1, 1, 1), matrix=corrupted_matrix(A3))
    assert (rep.missing_total, rep.extra_total) == (24, 24)
    assert len(rep.missing) == len(rep.extra) == 10
    assert len(rep.to_dict()["missing"]) == len(rep.to_dict()["extra"]) == 10


def test_check_main_builds_fractions_only_in_the_twist_read_off(
    monkeypatch, fresh_twist_memos
):
    # the weight rows are integers over weight_denominator(lt); the only
    # Fractions of a passing case are the entries of the twist, built by the
    # table degenmap reads Phi and each case's column off through, and that
    # table is read nowhere else
    callers = []
    new = Fraction.__new__

    def named(frame):
        while frame.f_code.co_name.startswith("<"):  # a comprehension
            frame = frame.f_back
        return frame

    def recording(cls, *args, **kwargs):
        frame = named(sys._getframe(1))
        callers.append((frame.f_code.co_name, named(frame.f_back).f_code.co_name))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", recording)
    for lt, w in ((A3, (1, 0, 1)), (C3, (0, 1, 1))):
        assert check_main(lt, w).status == "ok"
    assert set(callers) == {("_fraction", "weight_map"), ("_fraction", "case_twist")}


def test_check_main_eliminates_the_label_rows_once_per_type(monkeypatch, fresh_twist_memos):
    # the trusted path reads every twist off Phi, one elimination of the N
    # label rows of the type by descending label index; no support or case
    # eliminates a row, and none runs the reference
    real = degenmap._eliminate
    seen = []

    def recording(m, rows, basis):
        rows = list(rows)
        seen.append([key for key, _ in rows])
        return real(m, rows, basis)

    monkeypatch.setattr(degenmap, "_eliminate", recording)
    monkeypatch.setattr(degenmap, "scaled_twist_solve", None)
    for lt in (A1, A2, A3, A4, C2, C3):
        seen.clear()
        for w in dominant_weights(lt.rank, 2):
            assert check_main(lt, w).status == "ok"
        assert seen == [list(reversed(range(rootsys.root_count(lt))))]


def test_check_main_keys_the_fit_on_a_tuple_matrix(fresh_twist_memos):
    # an override given as lists fits like the same tuples, and the memos
    # are keyed on tuples of tuples
    mat = corrupted_matrix(A3)
    rep = check_main(A3, (1, 1, 0), matrix=[list(row) for row in mat])
    assert rep == check_main(A3, (1, 1, 0), matrix=mat)
    assert degenmap.label_rows.cache_info().currsize == 1


@pytest.mark.parametrize(
    "matrix", [[[-1, 0, 0], [0, -1], [0, 0, -1]], [], [[1]]], ids=["ragged", "empty", "1x1"]
)
def test_malformed_override_is_refused_before_any_work(monkeypatch, matrix):
    # one ValueError naming the expected N x N shape, raised before a sum,
    # a walk or a fit starts
    for name in ("packed_sum", "walk", "case_twist", "translation_and_zero_row"):
        monkeypatch.setattr(verify, name, None)
    with pytest.raises(ValueError, match=r"^A2: matrix must be 3 x 3$"):
        check_main(A2, (1, 0), matrix=matrix)


def test_check_main_holds_no_point_set_but_the_images(monkeypatch):
    # the walk takes each match out of the image set, so with the per-type
    # caches warm a case peaks near packed_sum alone; a string set beside
    # the images read 1.83-2.01 times it
    real = verify.packed_sum
    sums = record_calls(monkeypatch, verify, "packed_sum")
    for lt, w in ((C3, (0, 2, 2)), (A4, (1, 1, 1, 1))):
        assert check_main(lt, w).status == "ok"
        alone = traced_memory(real, *sums[-1])[2]
        assert traced_memory(check_main, lt, w)[2] <= 1.25 * alone


def _shift_translation(monkeypatch, k, step):
    """Patch the translation of check_main to t + step * e_k, and its pair
    row of 0 with it, as the per-weight walk would move both; patch inside a
    fresh ``monkeypatch.context()``, or shifts compound across calls."""
    real = verify.translation_and_zero_row

    def shifted(lt, weight):
        t, row0 = real(lt, weight)
        t[k] += step
        row0[reduced_word(lt)[k] - 1] -= step * weight_denominator(lt)
        return t, row0

    monkeypatch.setattr(verify, "translation_and_zero_row", shifted)


@pytest.mark.parametrize("lt, w", [(A3, (1, 0, 1)), (C2, (1, 1))])
def test_translation_plus_one_fails_with_witnesses_while_the_twist_fits(
    monkeypatch, lt, w
):
    # T(P) moves off Q by a unit vector: both sides have witnesses, and the
    # companion weights move by one constant, which the shift absorbs
    for k in range(len(build_labels(lt))):
        with monkeypatch.context() as patch:
            _shift_translation(patch, k, 1)
            rep = check_main(lt, w)
        assert rep.status == "failed"
        assert rep.missing and rep.extra
        assert rep.weight_twist is not None and rep.twist_witness is None


def test_translation_past_one_byte_widens_the_digits(monkeypatch):
    # an image entry of 200 needs 16-bit digits: the extra witnesses are the
    # strings moved by 200 in one coordinate, decoded exactly
    strings = string_points(A3, (1, 0, 1))
    for k in range(len(build_labels(A3))):
        with monkeypatch.context() as patch:
            _shift_translation(patch, k, 200)
            rep = check_main(A3, (1, 0, 1))
        moved = sorted(s[:k] + (s[k] + 200,) + s[k + 1 :] for s in strings)
        assert rep.extra == tuple(moved[:WITNESS_CAP]) and rep.extra_total == len(strings)
        assert rep.missing_total == len(strings) and rep.weight_twist is not None


def test_override_rows_past_one_byte_widen_the_digits(fresh_twist_memos):
    # 100 added to an entry of column 0, whose chain coordinate reaches the
    # level 2, puts image entries near 200: a row sum of the override times
    # the level needs 16-bit digits where the trusted matrix's rows need 8,
    # and the witnesses decode exactly as the images of the chain points
    lt, w = A3, (1, 0, 1)
    trans, strings = build_translation(lt, w), set(string_points(lt, w))
    trusted = max(map(abs, trans)) + sum(w) * degenmap.matrix_row_sum(lt)
    assert rootsys.pack_width(max(crystal.letter_count(w), trusted)) == 8
    for r in range(len(trans)):
        mat = [list(row) for row in build_matrix(lt)]
        mat[r][0] += 100
        images = {apply_affine(mat, trans, p) for p in points(lt, w)}
        assert max(map(max, images)) > 127
        rep = check_main(lt, w, matrix=mat)
        extra, missing = sorted(images - strings), sorted(strings - images)
        assert rep.extra == tuple(extra[:WITNESS_CAP]) and rep.extra_total == len(extra)
        assert rep.missing == tuple(missing[:WITNESS_CAP])
        assert rep.missing_total == len(missing)


def test_a_lost_image_leaves_the_dimension_at_the_leaf_count(monkeypatch):
    # packed_sum without its least image: the image count falls by one and
    # the string it matched is the one missing witness, while the report's
    # dimension stays the walk's gated leaf count; an override counts its
    # chain points by the same sum, so it reports the short sum alike
    real = verify.packed_sum

    def lossy(*args):
        images = real(*args)
        images.discard(min(images))
        return images

    monkeypatch.setattr(verify, "packed_sum", lossy)
    for lt, w, mat in ((A3, (1, 0, 1), None), (C2, (1, 1), None), (C2, (1, 1), build_matrix(C2))):
        rep, dim = check_main(lt, w, mat), weyl_dim(lt, w)
        assert (rep.fflv_count, rep.string_count, rep.weyl_dim) == (dim - 1, dim, dim)
        assert rep.missing == (min(string_points(lt, w)),) and rep.missing_total == 1
        assert rep.extra == () and rep.extra_total == 0 and rep.status == "failed"


def test_check_main_evaluates_one_weyl_product_per_case(monkeypatch):
    # the walk's gate equates the leaf count with weyl_dim, so the report
    # carries that count and check_main evaluates no second product; an
    # override counts its chain points by the identity's packed sum, which
    # has no cardinality gate
    real, callers = rootsys.weyl_dim, []

    def spy(lt, w):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(lt, w)

    for name, module in list(sys.modules.items()):
        if name.startswith("fflvstring") and vars(module).get("weyl_dim") is real:
            monkeypatch.setattr(module, "weyl_dim", spy)
    override = [list(row) for row in build_matrix(A3)]
    for lt, w, mat, expected in (
        (A3, (1, 0, 1), None, ["walk"]),
        (C3, (0, 1, 1), None, ["walk"]),
        (A3, (1, 1, 0), override, ["walk"]),
    ):
        check_main(lt, w, mat)  # warm: a cold fundamental set gates its own count
        callers.clear()
        assert check_main(lt, w, mat).status == "ok"
        assert callers == expected


@pytest.mark.parametrize("lt, w", [(A3, (1, 0, 1)), (C2, (0, 1))])
def test_translation_minus_one_on_a_zero_coordinate_trips_the_gate(
    monkeypatch, lt, w
):
    # the zero chain point maps to the translation itself
    zeros = [k for k, x in enumerate(build_translation(lt, w)) if x == 0]
    assert zeros
    for k in zeros:
        with monkeypatch.context() as patch:
            _shift_translation(patch, k, -1)
            with pytest.raises(VerificationError) as exc:
                check_main(lt, w)
        assert exc.value.gate == "degenmap.nonnegative_image"


def test_permuted_word_fails_with_witnesses_or_a_gate(
    monkeypatch, fresh_twist_memos, fresh_walk_steps
):
    # two adjacent letters that do not commute, swapped, name another Weyl
    # group element.  Weights are chosen whose Demazure crystals tell the
    # two apart: for some weights of a small stabilizer both agree and the
    # case rightly passes, as for A3 (1,0,0) swapped at position 1
    outcomes = set()
    for lt, w in ((A2, (1, 1)), (A3, (1, 1, 1)), (C2, (1, 0)), (C3, (1, 1, 1))):
        word = reduced_word(lt)
        d, mat = rootsys.weight_denominator(lt), build_matrix(lt)
        for k in range(len(word) - 1):
            if abs(word[k] - word[k + 1]) != 1:
                continue
            swapped = word[:k] + (word[k + 1], word[k]) + word[k + 2:]
            for module in (rootsys, crystal):
                monkeypatch.setattr(module, "reduced_word", lambda lt, s=swapped: s)
            for memo in TWIST_MEMOS + WALK_MEMOS:
                memo.cache_clear()
            try:
                rep = check_main(lt, w)
            except VerificationError as exc:
                outcomes.add(exc.gate)
                continue
            # the fit read its label rows over the swapped word
            assert degenmap.label_rows.cache_info().misses == 1
            counts = [
                tuple(d * sum(x for x, letter in zip(col, swapped) if letter == j)
                      for j in range(1, lt.target_rank + 1))
                for col in zip(*mat)
            ]
            assert [row[: lt.target_rank] for row in degenmap.label_rows(lt, mat)] == counts
            assert rep.status == "failed"
            assert rep.missing or rep.extra or rep.twist_witness
            outcomes.add("witnesses")
    assert outcomes == {"crystal.demazure_dimension", "witnesses"}


def test_run_grid_empty():
    assert run_grid([]) == []


def test_run_grid_level_zero():
    reports = run_grid([(A2, 0), (C2, 0)])
    assert [(r.family, r.weight) for r in reports] == [("A", (0, 0)), ("C", (0, 0))]
    assert all_passed(reports)


def test_comm_sweep_frees_the_tables_of_each_rank():
    # no rank reads the exterior-power tables of another, so the sweep reads
    # and fills no memo of any package module and grows no module state
    modules = [module for name, module in sys.modules.items() if name.startswith("fflvstring.")]

    def state():
        return {
            (module.__name__, name): value.cache_info() if hasattr(value, "cache_info")
            else len(value)
            for module in modules
            for name, value in vars(module).items()
            if hasattr(value, "cache_info") or isinstance(value, (dict, list, set))
        }

    before = state()
    assert comm_sweep(3)[1] == []
    assert state() == before


def test_unimodular_sweep_keeps_about_one_rank_alive():
    # each rank's packed rows are freed once its line is written: with the
    # word and Cartan memos that both read warm, the sweep peaked at 3.5
    # times the largest rank's rows while a memo kept them all, and at 1.4
    # without it
    for family in "AC":
        for n in range(1, 21):
            reduced_word(LieType(family, n))
            degenmap._simple_roots(family, n)
    lt = LieType("C", 20)
    assert traced_memory(unimodular_sweep, 20)[2] <= 2.5 * traced_memory(packed_matrix, lt)[2]


def test_comm_sweep_tests_each_unordered_pair_once(monkeypatch):
    # m * C(m, 2) equivalence tests per family and rank m <= 4: the full
    # table of ordered pairs, diagonal included, would make 200
    real = verify.commutation_tables
    pairs = []

    def counted(family, rank):
        tables = real(family, rank)
        for table in tables:
            pairs.extend(table)
        return tables

    monkeypatch.setattr(verify, "commutation_tables", counted)
    assert comm_sweep(4)[1] == []
    assert len(pairs) == 70
    assert all(l < j for l, j in pairs)


def test_comm_sweep_stdout_at_rank_seven(capsys):
    # the largest rank the default --max-dim admits: both families' tables
    # at every acting rank up to 7, as the sweep prints them
    assert cli.main(["verify", "comm", "--max-rank", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b80f3ab01479308a6690752877b96ae07d2d73692fa289dedee6e273d4c613e3"
    )


def test_unimodular_sweep_reads_the_entries_off_the_gates():
    # -1, 0 below the diagonal and -2 where a row holds it: every entry of
    # the matrix, as a pass over all of them finds
    lines, failures = unimodular_sweep(8)
    assert failures == []
    types = [LieType(f, n) for f in "AC" for n in range(1, 9)]
    for line, lt in zip(lines, types, strict=True):
        mat = build_matrix(lt)
        entries = sorted(set().union(*mat))
        assert line == f"{lt}: det = {(-1) ** len(mat)}, entries = {entries}, triangular = True"


def test_report_json_digest_fixture():
    # pins the reported twists, whose values the fit checks do not compare
    # with anything fixed: a weight denominator too small for the companion
    # moves every shift of A3 and still fits
    text = reports_to_json(run_grid([(A3, 2), (C2, 2)]))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ba7d08b2ae4f5c526dfdbad66ff148a37f1562a4272cf5edd5c05c5c8304d372"
    )


def _reference_report(lt, w, matrix):
    """``check_main`` stage by stage on the dense matrix and ``Fraction``
    weights, the twist by the Gauss-Jordan oracle, which shares no
    elimination with the package: the report dict and the twist witness it
    must produce."""
    chain = points(lt, w)
    mat = build_matrix(lt) if matrix is None else matrix
    trans = build_translation(lt, w)
    images = [apply_affine(mat, trans, p) for p in chain]
    strings = string_points(lt, w)
    missing = [s for s in strings if s not in set(images)]
    extra = sorted(set(images) - set(strings))
    pairs = [
        (fflv_weight(lt, w, p), string_weight(lt, w, v)) for p, v in zip(chain, images)
    ]
    fit, witness = twist_oracle(lt.target_rank, pairs)
    dim = weyl_dim(lt, w)
    equal = not missing and not extra
    ok = equal and len(chain) == len(strings) == dim and fit is not None
    return {
        "family": lt.family,
        "rank": lt.rank,
        "weight": list(w),
        "status": "ok" if ok else "failed",
        "fflv_count": len(chain),
        "string_count": len(strings),
        "weyl_dim": dim,
        "equal": equal,
        "missing_total": len(missing),
        "missing": [list(p) for p in missing[:WITNESS_CAP]],
        "extra_total": len(extra),
        "extra": [list(p) for p in extra[:WITNESS_CAP]],
        "weight_twist": None if fit is None else {
            "matrix": [[str(x) for x in row] for row in fit[0]],
            "shift": [str(x) for x in fit[1]],
            "unique": fit[2],
        },
    }, witness


KERNEL_CASES = [
    (lt, w)
    for lt in [LieType(f, n) for f in "AC" for n in range(1, 5)]
    for w in dominant_weights(lt.rank, 4)
    if weyl_dim(lt, w) <= 500
]


@settings(max_examples=60)
@given(st.data())
def test_integer_kernel_matches_staged_reference(data):
    # check_main fits the twist on integer pairs of the zero and unit
    # points; the reference fits the Fraction pairs of every chain point by
    # the Gauss-Jordan oracle.  A moved matrix entry exercises the witness
    # path, which must also agree: it gives negative images and, on the
    # diagonal, can make the map non-injective.  Two moved entries can break
    # two source coordinates at different pairs, and the witness is the
    # pair that breaks the lowest of them
    lt, w = data.draw(st.sampled_from(KERNEL_CASES))
    matrix = None
    if data.draw(st.booleans()):
        size = len(build_matrix(lt))
        mat = [list(row) for row in build_matrix(lt)]
        for _ in range(data.draw(st.integers(1, 2))):
            r, c = data.draw(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)))
            mat[r][c] += data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        matrix = tuple(tuple(row) for row in mat)
    rep = check_main(lt, w, matrix)
    assert (rep.to_dict(), rep.twist_witness) == _reference_report(lt, w, matrix)


def test_check_main_shares_no_stage_with_the_staged_reference(monkeypatch):
    # the reference above builds P and maps each point with apply_affine; a
    # passing trusted case must do neither, as it sums packed fundamental
    # images.  The reference fits the twist by the Gauss-Jordan oracle; only
    # the weights and the letter counts are shared, and they have their own
    # tests against independent oracles
    def refuse(*args, **kwargs):
        raise AssertionError("check_main called a staged-reference function")

    for module in (degenmap, verify):
        monkeypatch.setattr(module, "apply_affine", refuse, raising=False)
    monkeypatch.setattr(verify, "points", refuse)
    for lt, w in ((A3, (1, 0, 1)), (C2, (1, 1))):
        assert check_main(lt, w).status == "ok"


def _dense_fold_lines(max_rank, bad=None):
    """The verdict lines of ``fold_sweep`` from one ``build_translation`` walk
    per omega_i and ``fold_vector``, with entry k of t(lt, omega_i) off by d
    if ``bad`` is the corrupted pair ``(lt, i, k, d)``."""
    def t(lt, i):
        out = list(build_translation(lt, fundamental_weight(lt.rank, i)))
        if bad is not None and bad[:2] == (lt, i):
            out[bad[2]] += bad[3]
        return tuple(out)

    lines = []
    for n in range(1, max_rank + 1):
        source, target = LieType("A", 2 * n - 1), LieType("C", n)
        lines += [
            f"fold t({source}, omega_{i}) == t({target}, omega_{i}): "
            f"{fold_vector(t(source, i), n) == t(target, i)}"
            for i in range(1, n + 1)
        ]
    return lines


@pytest.mark.parametrize("family", ["A", "C"])
def test_packed_fold_verdicts_are_the_fold_vector_comparisons(monkeypatch, family):
    assert fold_sweep(12) == (_dense_fold_lines(12), [])
    # one entry of one t(omega_i) of one type off by d: the packed verdicts
    # still read as the dense comparisons, and only (n, i) fails
    for n in (2, 3):
        bad = LieType(family, 2 * n - 1 if family == "A" else n)
        for i in range(1, n + 1):
            for k, d in ((0, 1), (-1, -2), (n, 2), (n + 1, -1)):

                def wrong(lt, weight, bad=bad, k=k, d=d, i=i):
                    out = list(build_translation(lt, weight))
                    if lt == bad:
                        out[k] += d << 8 * (i - 1)
                    return out

                monkeypatch.setattr(verify, "build_translation", wrong)
                lines, failures = fold_sweep(3)
                assert failures == [(n, i)]
                assert lines == _dense_fold_lines(3, (bad, i, k, d)) + [
                    f"failing (rank, index) pairs: {failures}"
                ]
