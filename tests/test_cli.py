"""Command-line surface: documents, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fflvstring.cli as cli
import fflvstring.verify as verify
import fflvstring.wedge as wedge
from fflvstring.cli import main
from fflvstring.crystal import string_points
from fflvstring.degenmap import apply_affine, build_matrix, build_translation
from fflvstring.errors import VerificationError
from fflvstring.fflv import points
from fflvstring.rootsys import (
    LieType, dominant_weights, fundamental_weight, pack, unpack, weyl_dim,
)
from conftest import A1, A2, A3, C2, corrupted_matrix, run_cli

GOLDEN_SWEEPS = {
    ("unimodular", "3"): """\
A1: det = -1, entries = [-1], triangular = True
A2: det = -1, entries = [-1, 0], triangular = True
A3: det = 1, entries = [-1, 0], triangular = True
C1: det = -1, entries = [-1], triangular = True
C2: det = 1, entries = [-2, -1, 0], triangular = True
C3: det = -1, entries = [-2, -1, 0], triangular = True
""",
    ("fold", "2"): """\
fold t(A1, omega_1) == t(C1, omega_1): True
fold t(A3, omega_1) == t(C2, omega_1): True
fold t(A3, omega_2) == t(C2, omega_2): True
""",
    ("comm", "2"): """\
A1: commutation table ok
A2: commutation table ok
C1: commutation table ok
C2: commutation table ok
""",
}


def points_argv(command, lt, weight):
    return (
        command, "points", "--type", lt.family, "--rank", str(lt.rank),
        "--weight", ",".join(map(str, weight)),
    )


A3_MAIN = ("verify", "main", "--type", "A", "--rank", "3")
KINDS = {"fflv": "fflv", "stringpoly": "string"}

# rank 1 holds one coordinate per row and the zero weight one point
DOCUMENT_CASES = [
    pytest.param(command, lt, w, id=f"{lt}-{','.join(map(str, w))}-{command}")
    for lt in [LieType(f, n) for f in "AC" for n in range(1, 4)]
    for w in dominant_weights(lt.rank, 2)
    for command in KINDS
]


def assert_json_layout(out, doc, case):
    """A point document is exactly json's indented encoding plus a newline."""
    # compared as a flag: pytest's diff of two documents that differ on every
    # line takes minutes
    same = out == json.dumps(doc, indent=2) + "\n"
    assert same, f"{case}: not json.dumps(doc, indent=2) plus a newline"


def with_point_set(doc, command, lt, weight):
    """``doc`` with its points from the tuple API, not from the packed triple
    that the renderer reads."""
    point_set = points if command == "fflv" else string_points
    return dict(doc, points=[list(p) for p in point_set(lt, weight)])


@pytest.mark.parametrize("command, lt, weight", DOCUMENT_CASES)
def test_document_round_trip(capsys, command, lt, weight):
    code, out, _ = run_cli(capsys, *points_argv(command, lt, weight))
    assert code == 0
    doc = cli.polytope_document(lt, weight, KINDS[command])
    reference = with_point_set(doc, command, lt, weight)
    assert_json_layout(out, reference, f"{command} {lt} {weight}")


# every key before the rows comes from templates: the caption must be json's
# for every label layout up to rank 6, and for one of 1600 labels
@pytest.mark.parametrize("kind", ["fflv", "string"])
@pytest.mark.parametrize(
    "lt", [LieType(f, n) for f in "AC" for n in range(1, 7)] + [LieType("C", 40)], ids=str
)
def test_caption_is_json_dumps(kind, lt):
    weight = fundamental_weight(lt.rank, 1) if lt.rank <= 6 else (0,) * lt.rank
    doc = cli.polytope_document(lt, weight, kind)
    reference = dict(doc, points=[list(p) for p in unpack(*doc["points"])])
    assert_json_layout(cli.render_document(doc), reference, f"{kind} {lt}")


# the level and the letter count set the digit width of both kinds: up to
# 127 a coordinate is one byte and the rows are filled one decimal place at
# a time, 1, 2 or 3 places as the largest coordinate has digits; from 128
# on the digits are 16 bits wide and decode through unpack
@pytest.mark.parametrize("command", KINDS)
@pytest.mark.parametrize(
    "lt, weight, width",
    [
        *[
            pytest.param(A1, (level,), 8, id=f"A1-{level}")
            for level in (9, 10, 99, 100)
        ],
        pytest.param(A1, (127,), 8, id="A1-127"),
        pytest.param(A1, (128,), 16, id="A1-128"),
        pytest.param(A2, (127, 1), 16, id="A2-127,1"),
    ],
)
def test_document_at_the_byte_width_boundary(capsys, command, lt, weight, width):
    doc = cli.polytope_document(lt, weight, KINDS[command])
    assert doc["points"][2] == width
    code, out, _ = run_cli(capsys, *points_argv(command, lt, weight))
    assert code == 0
    reference = with_point_set(doc, command, lt, weight)
    assert_json_layout(out, reference, f"{command} {lt} {weight}")


# a byte-digit coordinate near a change of its digit count
_NEAR_PLACE = st.one_of(st.sampled_from((0, 9, 10, 99, 100, 127)), st.integers(0, 127))


@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(st.tuples(*[_NEAR_PLACE] * n), min_size=1, max_size=20, unique=True)
))
def test_byte_digit_rows_are_json_dumps(rows):
    # rows of every digit count side by side in one document, packed as
    # fflv.packed_points packs them; the labels only set the caption
    rows = sorted(rows)
    n = len(rows[0])
    doc = {
        "type": "A", "rank": n, "weight": [0] * n, "kind": "fflv",
        "labels": [{"row": 1, "col": k, "barred": False} for k in range(1, n + 1)],
        "points": ([pack(r, 8) for r in rows], n, 8),
    }
    reference = dict(doc, points=[list(r) for r in rows])
    assert_json_layout(cli.render_document(doc), reference, f"{rows}")


# sha256 of documents as json.dumps(doc, indent=2) + "\n" wrote them
DOCUMENT_DIGESTS = {
    ("fflv", "A", (1, 3, 0, 2)):
        "146b84d1a717ed8b42fff24557ad6453f8d7d5a1c24c525da5a41b038854d9d9",
    ("stringpoly", "A", (1, 3, 0, 2)):
        "24c4c63a8dc64812927764836e89b09127adec50fa7cbe1d385db5fd8d9b4afb",
    ("fflv", "A", (2, 0, 3, 1)):
        "6b16cc488bbc2a182f9a32723724b87d81ed10e47dad66117b590a072432125a",
    ("stringpoly", "A", (2, 0, 3, 1)):
        "090e6ae895b3ae70aa08923c91120f2cd876ec85282826c42d33794e7a29113e",
    ("fflv", "C", (0, 2, 2)):
        "9a0bec315aa6c2e51327e4a63e12cbf1cb1726cc5c87a51522c7edbf165c8caf",
    ("stringpoly", "C", (0, 2, 2)):
        "69188e04e86417a4de141ccf4b1f8de32528cbc5318d1702ff8210e4401f0708",
}


@pytest.mark.parametrize(
    "command, family, weight",
    [
        pytest.param(*key, id=f"{key[0]}-{key[1]}{len(key[2])}-{','.join(map(str, key[2]))}")
        for key in DOCUMENT_DIGESTS
    ],
)
def test_document_digest_fixture(capsys, command, family, weight):
    lt = LieType(family, len(weight))
    code, out, _ = run_cli(capsys, *points_argv(command, lt, weight))
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == DOCUMENT_DIGESTS[command, family, weight]


@settings(max_examples=40)
@given(st.data())
def test_point_sets_and_documents_agree(data):
    family = data.draw(st.sampled_from("AC"))
    lt = LieType(family, data.draw(st.integers(1, 4)))
    w = tuple(data.draw(st.lists(st.integers(0, 2), min_size=lt.rank, max_size=lt.rank)))
    assume(weyl_dim(lt, w) <= 400)
    chain, strings = points(lt, w), string_points(lt, w)
    assert len(chain) == len(strings) == weyl_dim(lt, w)
    matrix, translation = build_matrix(lt), build_translation(lt, w)
    assert {apply_affine(matrix, translation, p) for p in chain} == set(strings)
    for command, expected in (("fflv", chain), ("stringpoly", strings)):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert main(list(points_argv(command, lt, w))) == 0
        out = stdout.getvalue()
        doc = json.loads(out)
        assert doc["points"] == [list(p) for p in expected]
        assert_json_layout(out, doc, f"{command} {lt} {w}")


# sha256 of the ``verify main --type A --rank 3 --max-level 2 --json`` report
# against the A3 matrix with its first diagonal entry lowered by one
CORRUPTED_A3_REPORT_DIGEST = "874d543379ed2ceada54718dd92a9ce3764f84f2ff4fc9fbeb1427e76ea9f125"


def test_verify_main_corrupted_fixture_fails(tmp_path, capsys, monkeypatch):
    # the one fault seam is check_main's matrix: each case runs through it,
    # each type's matrix with its first diagonal entry lowered by one
    real = verify.check_main
    monkeypatch.setattr(cli, "check_main", lambda lt, w: real(lt, w, corrupted_matrix(lt)))
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, *A3_MAIN, "--max-level", "2", "--json", str(path))
    assert code == 1
    assert out.count("\n  missing string point: [") == 36
    assert out.count("\n  unmatched image point: [") == 36
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CORRUPTED_A3_REPORT_DIGEST
    # a twist that does not fit prints its witness pair under its case, as
    # check_main reports it for A4 (1, 1, 1, 1)
    assert out.count("\n  twist witness: source [") == 4
    argv = ("verify", "main", "--type", "A", "--rank", "4", "--max-level", "4")
    code, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("A4 (1, 1, 1, 1) "))
    assert code == 1 and "none" in lines[k]
    assert lines[k + 1] == "  twist witness: source [1, 2, 2, 1], companion [1, 1, 0, 0, 0, 1, 1]"


def test_verify_main_prints_each_case_as_it_finishes(capsys, monkeypatch):
    # a gate that trips on the third case leaves the rows of the two before it
    first = [verify.check_main(A3, w) for w in list(dominant_weights(3, 1))[:2]]
    fault = VerificationError("fflv.minkowski_cardinality", "forced by test")
    monkeypatch.setattr(cli, "check_main", mock.Mock(side_effect=[*first, fault]))
    code, out, err = run_cli(capsys, *A3_MAIN, "--max-level", "1")
    assert code == 3 and "fflv.minkowski_cardinality" in err
    assert [row[:16].rstrip() for row in out.splitlines()[1:]] == [f"A3 {r.weight}" for r in first]


def test_verify_main_json_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "2", "--json")
    for path in paths:
        assert run_cli(capsys, *argv, str(path))[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("sweep, max_rank", GOLDEN_SWEEPS)
def test_verify_sweep_golden(capsys, sweep, max_rank):
    code, out, err = run_cli(capsys, "verify", sweep, "--max-rank", max_rank)
    assert (code, out, err) == (0, GOLDEN_SWEEPS[sweep, max_rank], "")


def test_verify_unimodular_failure_path(capsys, monkeypatch):
    real = verify.packed_matrix

    def broken(lt):
        if lt == C2:
            raise VerificationError("degenmap.entry_range", f"{lt}: entries [1]")
        return real(lt)

    monkeypatch.setattr(verify, "packed_matrix", broken)
    code, out, _ = run_cli(capsys, "verify", "unimodular", "--max-rank", "2")
    assert code == 1
    assert "C2: FAILED (degenmap.entry_range: C2: entries [1])\n" in out
    assert verify.unimodular_sweep(2)[1] == ["C2"]


def test_verify_fold_failure_path(capsys, monkeypatch):
    def wrong(lt, weight):
        # the last entry of t(C2, omega_1) and of t(C2, omega_2), one byte
        # each of the last packed int, one too large
        out = build_translation(lt, weight)
        return out[:-1] + (out[-1] + 1 + (1 << 8),) if lt == C2 else out

    monkeypatch.setattr(verify, "build_translation", wrong)
    code, out, _ = run_cli(capsys, "verify", "fold", "--max-rank", "2")
    assert code == 1
    assert "fold t(A3, omega_2) == t(C2, omega_2): False\n" in out
    assert out.endswith("failing (rank, index) pairs: [(2, 1), (2, 2)]\n")
    assert verify.fold_sweep(2)[1] == [(2, 1), (2, 2)]


def test_verify_comm_failure_path(capsys, monkeypatch):
    real = verify.commutation_tables

    def wrong(family, rank):
        tables = real(family, rank)
        if (family, rank) == ("C", 2):
            tables[0][1, 2] = not tables[0][1, 2]
        return tables

    monkeypatch.setattr(verify, "commutation_tables", wrong)
    code, out, _ = run_cli(capsys, "verify", "comm", "--max-rank", "2")
    assert code == 1
    assert "C2: commutation table FAILED\n" in out
    assert out.endswith("failing cases: [('C', 2, 1, 2, 'sim i=1')]\n")
    assert verify.comm_sweep(2)[1] == [("C", 2, 1, 2, "sim i=1")]


A3_POINTS = ("fflv", "points", "--type", "A", "--rank", "3")
WEIGHT_RULE = "usage error: --weight must be comma-separated nonnegative integers"
NOT_ASCII_INTEGERS = [("underscore", "1_0"), ("arabic-indic", "\u0661"), ("fullwidth", "\uff11")]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param((*A3_POINTS, "--weight", "1,0"), "usage error: --weight needs exactly 3",
                     id="length"),
        pytest.param((*A3_POINTS, "--weight", "1,-1,0"), f"{WEIGHT_RULE}, got '-1'", id="negative"),
        pytest.param((*A3_POINTS, "--weight", "1,x,0"), f"{WEIGHT_RULE}, got 'x'", id="integer"),
        pytest.param((*A3_POINTS, "--weight", "x,1,0", "-h"), WEIGHT_RULE, id="integer-help"),
        # int() reads these as 10, 1 and 1: the CLI reads ASCII digits alone
        *[pytest.param((*A3_POINTS, "--weight", f"{text},0,0"), f"{WEIGHT_RULE}, got {text!r}",
                       id=f"weight-{name}") for name, text in NOT_ASCII_INTEGERS],
        *[pytest.param(("fflv", "points", "--rank", text), f"a positive integer, got {text!r}",
                       id=f"rank-{name}") for name, text in NOT_ASCII_INTEGERS],
        pytest.param(("fflv", "points", "--type", "B", "--rank", "2", "--weight", "0,0"),
                     "usage error: --type must be A or C", id="type"),
        pytest.param((*A3_POINTS, "--weight", "1,0,0", "--bogus", "1"),
                     "error: unrecognized arguments: --bogus 1", id="flag"),
        pytest.param((*A3_MAIN, "--max-level", "-1"),
                     "usage error: --max-level must be nonnegative", id="level"),
        pytest.param((*A3_MAIN, "--max-level", "x"),
                     "usage error: --max-level must be nonnegative, got 'x'", id="level-integer"),
        *[pytest.param(("verify", sweep, "--max-rank", "0"),
                       "usage error: --max-rank must be at least 1, got '0'",
                       id=f"max-rank-{sweep}") for sweep in verify.SWEEPS],
        pytest.param(("verify", "fold", "--max-rank", "x"),
                     "usage error: --max-rank must be at least 1, got 'x'", id="max-rank-integer"),
    ],
)
def test_usage_error_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_verify_main_has_no_thread_option(capsys):
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "1")
    code, out, err = run_cli(capsys, *argv, "--threads", "2")
    assert (code, out) == (2, "") and "unrecognized arguments: --threads" in err


def test_gate_failure_exits_three(capsys, monkeypatch):
    def explode(lt, weight):
        raise VerificationError("fflv.minkowski_cardinality", "forced by test")

    monkeypatch.setattr(cli, "packed_points", explode)
    code, out, err = run_cli(capsys, *points_argv("fflv", A2, (1, 0)))
    assert code == 3
    assert "fflv.minkowski_cardinality" in err
    assert out == ""


def test_weight_admits_spaces_around_coefficients(capsys):
    argv = points_argv("fflv", A2, (1, 0))[:-1]
    assert run_cli(capsys, *argv, "1, 0") == (0, run_cli(capsys, *argv, "1,0")[1], "")


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "points.json"
    argv = points_argv("fflv", A2, (1, 0))
    code, out, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert out == ""
    assert len(json.loads(path.read_text())["points"]) == 3
    # --out writes the bytes stdout gets
    _, stdout, _ = run_cli(capsys, *argv)
    assert path.read_bytes() == stdout.encode("utf-8")


@pytest.mark.parametrize("target", ["missing/out.json", ".", ""])
@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "1", "--json"),
        ("fflv", "points", "--type", "A", "--rank", "2", "--weight", "1,0", "--out"),
        ("stringpoly", "points", "--type", "C", "--rank", "2", "--weight", "0,1", "--out"),
    ],
)
def test_unwritable_output_refused_before_work(tmp_path, capsys, monkeypatch, argv, target):
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the output path was checked")

    for name in ("check_main", "packed_points", "packed_string_points"):
        monkeypatch.setattr(cli, name, no_work)
    # an empty path is refused as it stands, not read as the directory
    path = str(tmp_path / target) if target else target
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert "cannot write" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("fflv", "points", "--type", "A", "--rank", "8", "--weight", "3,3,3,3,3,3,3,3"),
        ("stringpoly", "points", "--type", "C", "--rank", "4", "--weight", "3,3,3,3"),
        ("fflv", "points", "--type", "A", "--rank", "2", "--weight", "1,0",
         "--max-dim", "2"),
        ("verify", "main", "--type", "C", "--rank", "5", "--max-level", "3"),
        ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "2",
         "--max-dim", "7"),
        ("stringpoly", "points", "--type", "C", "--rank", "300", "--weight", "0," * 299 + "0"),
        ("stringpoly", "points", "--type", "C", "--rank", "22", "--weight", "0," * 21 + "0"),
    ],
)
def test_max_dim_refused_before_enumeration(capsys, monkeypatch, argv):
    # A8 (3^8) has dimension 4.7e21: the Weyl dimension is checked before
    # any enumeration starts, so no point set is ever asked for.  At the zero
    # weight of C300 the dimension is 1, but the walk's step table holds
    # N(N-1)/2 string digits for N = 90,000 labels, gigabytes: stringpoly
    # refuses a type whose N^2 exceeds the budget, as verify main does
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the dimension was checked")

    for name in ("check_main", "packed_points", "packed_string_points"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "above --max-dim" in err


def test_max_dim_admits_its_bound(capsys):
    # the adjoint of A2 has dimension 8, the largest case of the level-2 grid
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "2")
    assert run_cli(capsys, *argv, "--max-dim", "8")[0] == 0
    code, out, _ = run_cli(capsys, *points_argv("fflv", A2, (1, 0)), "--max-dim", "3")
    assert code == 0 and len(json.loads(out)["points"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        # C8 needs 313,616 table rows, C22 234,256 and A30 216,225 matrix
        # entries, C38 213,750 translation digits (A75: 2,850 labels, 75 bytes)
        ("verify", "comm", "--max-rank", "8"),
        ("verify", "comm", "--max-rank", "1000000000"),
        ("verify", "comm", "--max-rank", "3", "--max-dim", "122"),
        ("verify", "unimodular", "--max-rank", "22"),
        ("verify", "unimodular", "--max-rank", "3", "--max-dim", "80"),
        ("verify", "main", "--type", "C", "--rank", "32", "--max-level", "0"),
        ("verify", "main", "--type", "A", "--rank", "30", "--max-level", "0"),
        ("verify", "fold", "--max-rank", "38"),
        ("verify", "fold", "--max-rank", "3", "--max-dim", "74"),
    ],
)
def test_table_size_refused_before_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a table was built before its size was checked")

    monkeypatch.setattr(wedge, "packed_powers", no_work)
    monkeypatch.setattr(wedge, "step_masks", no_work)
    monkeypatch.setattr(verify, "build_matrix", no_work)
    monkeypatch.setattr(verify, "packed_matrix", no_work)
    monkeypatch.setattr(verify, "build_translation", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "above --max-dim" in err


def test_table_size_admits_its_bound(capsys):
    # C3 holds 123 table rows and 81 matrix entries, A5 75 translation digits
    for sweep, bound in (("comm", "123"), ("fold", "75"), ("unimodular", "81")):
        code, out, err = run_cli(capsys, "verify", sweep, "--max-rank", "3", "--max-dim", bound)
        assert (code, err) == (0, "")
    assert out == GOLDEN_SWEEPS["unimodular", "3"]
    argv = ("verify", "main", "--type", "A", "--rank", "30", "--max-level", "0")
    assert run_cli(capsys, *argv, "--max-dim", "216225")[0] == 0
    # C21: 441 labels, 441^2 = 194,481 entries, admitted by the default
    argv = ("stringpoly", "points", "--type", "C", "--rank", "21", "--weight", "0," * 20 + "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5783ee141126063c13d2c10e7361b570d79961956d91984d4a384646df8d2cb5"
    )
    # the default budget admits the comm sweep up to acting rank 7, the fold
    # sweep up to rank 37
    assert verify.comm_table_rows(7) <= cli.DEFAULT_MAX_DIM < verify.comm_table_rows(8)
    fold_digits = verify.SWEEPS["fold"][3]
    assert fold_digits(37) <= cli.DEFAULT_MAX_DIM < fold_digits(38)


@pytest.mark.parametrize("rank", ["0", "-1", "two"])
@pytest.mark.parametrize("command", [("fflv", "points"), ("verify", "main")])
def test_rank_validated_at_parse_time(capsys, monkeypatch, command, rank):
    def no_run(*args, **kwargs):
        raise AssertionError("a handler ran for an invalid rank")

    monkeypatch.setattr(cli, "LieType", no_run)
    extra = ("--weight", "0") if command[0] == "fflv" else ("--max-level", "0")
    code, out, err = run_cli(capsys, *command, "--type", "A", "--rank", rank, *extra)
    assert (code, out) == (2, "")
    assert "--rank must be a positive integer" in err


def test_library_value_error_is_internal_fault(capsys, monkeypatch):
    # input is validated at the front end, so a ValueError from the
    # library is a fault of the program, not of the user
    def fault(*args, **kwargs):
        raise ValueError("at least one weight pair is required")

    monkeypatch.setattr(cli, "check_main", fault)
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.count("\n")) == (3, 1)
    assert "internal error: at least one weight pair is required" in err


ARGV_VALUES = {
    "--type": ("A", "C", "B", ""),
    "--rank": ("-1", "0", "1", "2", "3", "two"),
    "--weight": ("0", "1,0", "0,2", "1,0,1", "2,-1", "1,,0", "x"),
    "--max-level": ("-1", "0", "1", "2", "x"),
    "--max-rank": ("-1", "0", "1", "2", "3"),
    "--max-dim": ("0", "8", "100"),
}
POINTS_FLAGS = ("--type", "--rank", "--weight", "--max-dim")
ARGV_COMMANDS = {
    (): (),
    ("verify",): (),
    ("fflv", "points"): POINTS_FLAGS,
    ("stringpoly", "points"): POINTS_FLAGS,
    ("verify", "main"): ("--type", "--rank", "--max-level", "--max-dim"),
    ("verify", "unimodular"): ("--max-rank", "--max-dim"),
    ("verify", "fold"): ("--max-rank", "--max-dim"),
    ("verify", "comm"): ("--max-rank", "--max-dim"),
}
ARGV_NOISE = ("--no-such-flag", "--help", "--rank", "--weight", "verify", "stray", "3")


@st.composite
def fuzzed_argv(draw):
    """A command with most of its own flags, each with a value from a small
    vocabulary, and up to two stray tokens put anywhere."""
    head, flags = draw(st.sampled_from(list(ARGV_COMMANDS.items())))
    argv = list(head)
    for flag in flags:
        if draw(st.integers(0, 5)):
            argv += [flag, draw(st.sampled_from(ARGV_VALUES[flag]))]
    for token in draw(st.lists(st.sampled_from(ARGV_NOISE), max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@lru_cache(maxsize=None)
def full_parser():
    """Every leaf in one parser, whatever argv names: the reference that
    ``cli.main`` must parse every argv as, by a leaf's parser or the tree."""
    parser = argparse.ArgumentParser(
        prog="fflvstring",
        description="Exact lattice-point pipelines for chain and string polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fflv = sub.add_parser("fflv", help="chain polytope lattice points")
    fflv_sub = fflv.add_subparsers(dest="subcommand", required=True)
    cli._add_points_args(fflv_sub.add_parser("points", help="emit a point document"))
    stringpoly = sub.add_parser("stringpoly", help="string polytope lattice points")
    string_sub = stringpoly.add_subparsers(dest="subcommand", required=True)
    cli._add_points_args(
        string_sub.add_parser("points", help="emit a point document"),
        f"{cli._DIM_TEXT}, or a type whose label count squared exceeds both this "
        f"and {cli.DEFAULT_MAX_DIM}",
    )
    verify_cmd = sub.add_parser("verify", help="theorem verification sweeps")
    verify_sub = verify_cmd.add_subparsers(dest="subcommand", required=True)
    main_cmd = verify_sub.add_parser("main", help="set equality over a weight grid")
    at_least = cli._at_least
    main_cmd.add_argument("--type", type=cli._parse_type, required=True)
    main_cmd.add_argument("--rank", required=True,
                          type=at_least("--rank", 1, "a positive integer"))
    main_cmd.add_argument("--max-level", required=True,
                          type=at_least("--max-level", 0, "nonnegative"))
    cli._add_max_dim(
        main_cmd,
        f"{cli._DIM_TEXT}, or a matrix whose entry count exceeds both this "
        f"and {cli.DEFAULT_MAX_DIM}",
    )
    main_cmd.add_argument("--json", type=cli._check_out_path)
    for name, (_, text, unit, _) in verify.SWEEPS.items():
        sweep = verify_sub.add_parser(name, help=text)
        sweep.add_argument("--max-rank", required=True,
                           type=at_least("--max-rank", 1, "at least 1"))
        cli._add_max_dim(sweep, f"refuse a rank whose {unit} exceed this")
    return parser


def outcome(argv, parser=None):
    """(exit code, stdout, stderr) of ``main(argv)``, every argv parsed by
    ``parser`` if given; the per-case times of ``verify main`` read as (t)."""
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        if parser is not None:
            stack.enter_context(mock.patch.object(cli, "_parse", parser.parse_args))
        code = main(list(argv))
    return code, re.sub(r"\(\d+\.\d{3}s\)", "(t)", out.getvalue()), err.getvalue()


@settings(max_examples=300)
@given(fuzzed_argv())
def test_argv_fuzz_exits_with_a_code(argv):
    # ranks, levels and --max-rank stay at most 3, so every accepted run is
    # small; main's parse and the full parser's give the same outcome
    code, out, err = outcome(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert (code, out, err) == outcome(argv, full_parser()), argv


# --help at every level, before and after a command, missing and unknown
# commands, options before the command, "--", negative numbers and "-"; then
# what a leaf's parser must read as the tree's: "--opt=value", abbreviated
# and ambiguous options, "--" and -h among the options, a repeated option,
# empty words, a missing value and a value that looks like an option; last,
# each rule of an option's type broken, alone and before -h or a stray word
EDGE_ARGV = [
    (*head, "--help")
    for head in [(), ("fflv",), ("fflv", "points"), ("stringpoly",), ("stringpoly", "points"),
                 ("verify",), *(("verify", name) for name in ("main", *verify.SWEEPS))]
] + [
    (), ("-h", "verify", "comm"), ("verify", "-h", "fold"), ("fflv",), ("verify",),
    ("verify", "nope"), ("nope", "verify", "comm"), ("verify", "comm"),
    ("verify", "fold", "--max-rank", "1", "--max-dim", "9"),
    ("--threads", "2", "verify", "fold", "--max-rank", "1"),
    ("verify", "fold", "--threads", "2", "--max-rank", "1"),
    ("--", "verify", "fold", "--max-rank", "1"), ("verify", "--", "fold", "--max-rank", "1"),
    ("-5", "verify", "comm"), ("verify", "-5", "comm"), ("verify", "-", "comm"),
    ("verify", "comm", "stray", "--max-rank", "1"), ("verify", "--max-rank", "1", "fold"),
    ("fflv", "points", "verify"), ("stringpoly", "verify", "points"), ("verify", "fflv"),
    ("verify", "unimodular", "--max-rank", "2", "--max-dim", "3"),
    ("verify", "main", "--type", "C", "--rank", "2", "--max-level", "1"),
    ("stringpoly", "points", "--type", "C", "--rank", "2", "--weight", "1,0"),
    ("fflv", "points", "--type=A", "--rank=2", "--weight=1,0"),
    ("verify", "main", "--type=C", "--rank", "2", "--max-level=1"),
    ("fflv", "points", "--ty", "A", "--rank", "2", "--we", "1,0"),
    ("verify", "fold", "--max-r", "2"), ("verify", "comm", "--max", "2"),
    ("verify", "main", "--type", "A", "--rank", "1", "--max", "1"),
    ("verify", "fold", "--", "--max-rank", "1"), ("verify", "fold", "--max-rank", "1", "--"),
    ("verify", "fold", "--max-rank", "1", "-h"), ("verify", "fold", "-h", "--bogus"),
    ("verify", "fold", "--max-rank", "1", "--max-rank", "2"),
    ("", "verify", "fold", "--max-rank", "1"), ("verify", "fold", "", "--max-rank", "1"),
    ("verify", "fold", "--max-rank"),
    ("fflv", "points", "--type", "A", "--rank", "2", "--weight"),
    ("fflv", "points", "--type", "A", "--rank", "2", "--weight", "-1,0"),
] + [
    (*words, *tail)
    for words in [
        ("fflv", "points", "--type", "B"), ("verify", "main", "--max-level", "-1"),
        ("verify", "main", "--max-level", "x"), ("verify", "comm", "--max-rank", "0"),
        ("verify", "fold", "--max-rank", "x"), ("verify", "main", "--json", ""),
        ("stringpoly", "points", "--out", "."), (*A3_POINTS, "--weight", "x,1"),
        (*A3_POINTS, "--weight=-1,0"), (*A3_POINTS, "--weight", "1_0,0"),
    ]
    for tail in [(), ("-h",), ("stray",)]
]


@pytest.mark.parametrize("argv", EDGE_ARGV, ids=lambda argv: " ".join(argv) or "no-argv")
def test_branch_parser_matches_the_full_parser(argv):
    assert outcome(argv) == outcome(argv, full_parser())


def test_a_valid_leaf_builds_one_parser(monkeypatch):
    # a valid leaf builds its own parser alone; the tree (the root, its 3
    # commands and 6 leaves) is built only when a word is left over
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (points_argv("fflv", A2, (1, 0)), points_argv("stringpoly", A2, (1, 0)),
                 ("verify", "fold", "--max-rank", "1")):
        cli.leaf_parser.cache_clear()
        cli.build_parser.cache_clear()
        built.clear()
        assert outcome(argv)[0] == 0
        assert built == [" ".join(("fflvstring", *argv[:2]))]
    # a word left over: the leaf's parser, then the whole tree for the error
    cli.leaf_parser.cache_clear()
    cli.build_parser.cache_clear()
    built.clear()
    code, out, err = outcome(("verify", "fold", "--max-rank", "1", "stray"))
    assert (code, out) == (2, "") and "fflvstring: error: unrecognized arguments: stray" in err
    assert built[:2] == ["fflvstring verify fold", "fflvstring"] and len(built) == 11


def test_module_entrypoint_runs_a_leaf():
    # python -m runs cli.entrypoint, which exits with main's code
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-m", "fflvstring.cli", "verify", "fold", "--max-rank", "2"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, GOLDEN_SWEEPS["fold", "2"], "")
