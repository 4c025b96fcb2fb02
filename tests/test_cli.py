"""Command-line surface: documents, exit codes, determinism."""

import json

import pytest

import fflvstring.cli as cli
import fflvstring.verify as verify
import fflvstring.wedge as wedge
from fflvstring.cli import main
from fflvstring.errors import VerificationError
from fflvstring.rootsys import LieType

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fflv_points_a3(capsys):
    code, out, _ = run_cli(
        capsys, "fflv", "points", "--type", "A", "--rank", "3", "--weight", "0,1,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "A" and doc["rank"] == 3 and doc["kind"] == "fflv"
    assert len(doc["points"]) == 6
    assert len(doc["labels"]) == 6
    assert doc["points"] == sorted(doc["points"])


def test_fflv_points_rank1_trivial(capsys):
    code, out, _ = run_cli(
        capsys, "fflv", "points", "--type", "A", "--rank", "1", "--weight", "0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["points"] == [[0]]


def test_fflv_points_c2(capsys):
    code, out, _ = run_cli(
        capsys, "fflv", "points", "--type", "C", "--rank", "2", "--weight", "0,1"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 5
    barred = [lab for lab in doc["labels"] if lab["barred"]]
    assert barred == [{"row": 1, "col": 1, "barred": True}]


def test_stringpoly_points_a2(capsys):
    code, out, _ = run_cli(
        capsys, "stringpoly", "points", "--type", "A", "--rank", "2", "--weight", "1,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "string"
    assert doc["word"] == [2, 3, 1]
    assert len(doc["points"]) == 3


def test_stringpoly_points_zero_weight(capsys):
    code, out, _ = run_cli(
        capsys, "stringpoly", "points", "--type", "A", "--rank", "2", "--weight", "0,0"
    )
    assert code == 0
    assert json.loads(out)["points"] == [[0, 0, 0]]


def test_stringpoly_points_c3(capsys):
    code, out, _ = run_cli(
        capsys, "stringpoly", "points", "--type", "C", "--rank", "3", "--weight", "0,1,0"
    )
    assert code == 0
    assert len(json.loads(out)["points"]) == 14


def test_document_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "fflv", "points", "--type", "C", "--rank", "2", "--weight", "1,1"
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_documents_byte_identical(capsys):
    args = ("stringpoly", "points", "--type", "A", "--rank", "3", "--weight", "1,0,1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_main_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "main", "--type", "A", "--rank", "2", "--max-level", "2"
    )
    assert code == 0
    assert "ok" in out


def test_verify_main_level_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "main", "--type", "C", "--rank", "2", "--max-level", "0"
    )
    assert code == 0


def test_verify_main_corrupted_fixture_fails(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "main", "--type", "A", "--rank", "2", "--max-level", "2",
        "--corrupt-matrix",
    )
    assert code == 1
    assert "missing" in out or "unmatched" in out


def test_verify_main_json_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys,
            "verify", "main", "--type", "A", "--rank", "2", "--max-level", "2",
            "--json", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def golden_sweep(capsys, sweep, max_rank):
    code, out, err = run_cli(capsys, "verify", sweep, "--max-rank", max_rank)
    assert (code, out, err) == (0, GOLDEN_SWEEPS[sweep, max_rank], "")


def test_verify_unimodular(capsys):
    golden_sweep(capsys, "unimodular", "3")


def test_verify_fold(capsys):
    golden_sweep(capsys, "fold", "2")


def test_verify_comm(capsys):
    golden_sweep(capsys, "comm", "2")


@pytest.mark.parametrize("sweep", ["unimodular", "fold", "comm"])
def test_verify_sweep_rejects_nonpositive_rank(capsys, sweep):
    code, out, err = run_cli(capsys, "verify", sweep, "--max-rank", "0")
    assert code == 2
    assert out == ""
    assert "--max-rank must be at least 1" in err


def test_verify_unimodular_failure_path(capsys, monkeypatch):
    real = verify.build_matrix

    def broken(lt):
        if lt == LieType("C", 2):
            raise VerificationError("degenmap.unimodular", f"{lt}: determinant 3")
        return real(lt)

    monkeypatch.setattr(verify, "build_matrix", broken)
    code, out, _ = run_cli(capsys, "verify", "unimodular", "--max-rank", "2")
    assert code == 1
    assert "C2: FAILED (degenmap.unimodular: C2: determinant 3)\n" in out
    assert verify.unimodular_sweep(2)[1] == ["C2"]


def test_verify_fold_failure_path(capsys, monkeypatch):
    real = verify.fold_vector

    def wrong(vec, n):
        out = real(vec, n)
        return out[:-1] + (out[-1] + 1,) if n == 2 else out

    monkeypatch.setattr(verify, "fold_vector", wrong)
    code, out, _ = run_cli(capsys, "verify", "fold", "--max-rank", "2")
    assert code == 1
    assert "fold t(A3, omega_2) == t(C2, omega_2): False\n" in out
    assert out.endswith("failing (rank, index) pairs: [(2, 1), (2, 2)]\n")
    assert verify.fold_sweep(2)[1] == [(2, 1), (2, 2)]


def test_verify_comm_failure_path(capsys, monkeypatch):
    real = verify.sim_check_ops

    def wrong(ops_x, ops_y, i, family, rank):
        ok = real(ops_x, ops_y, i, family, rank)
        return not ok if (family, rank, tuple(ops_x), i) == ("C", 2, (1, 2), 1) else ok

    monkeypatch.setattr(verify, "sim_check_ops", wrong)
    code, out, _ = run_cli(capsys, "verify", "comm", "--max-rank", "2")
    assert code == 1
    assert "C2: commutation table FAILED\n" in out
    assert out.endswith("failing cases: [('C', 2, 1, 2, 'sim i=1')]\n")
    assert verify.comm_sweep(2)[1] == [("C", 2, 1, 2, "sim i=1")]


def test_usage_error_wrong_weight_length(capsys):
    code, _, err = run_cli(
        capsys, "fflv", "points", "--type", "A", "--rank", "3", "--weight", "1,0"
    )
    assert code == 2
    assert "weight" in err


def test_usage_error_bad_type(capsys):
    code, _, err = run_cli(
        capsys, "fflv", "points", "--type", "B", "--rank", "2", "--weight", "0,0"
    )
    assert code == 2


def test_usage_error_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, "fflv", "points", "--bogus", "1")
    assert code == 2


def test_verify_main_has_no_thread_option(capsys):
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "1")
    code, out, err = run_cli(capsys, *argv, "--threads", "2")
    assert (code, out) == (2, "") and "unrecognized arguments: --threads" in err


def test_usage_error_negative_weight(capsys):
    code, _, err = run_cli(
        capsys, "fflv", "points", "--type", "A", "--rank", "2", "--weight", "1,-1"
    )
    assert code == 2


def test_gate_failure_exits_three(capsys, monkeypatch):
    def explode(lt, weight):
        raise VerificationError("fflv.minkowski_cardinality", "forced by test")

    monkeypatch.setattr(cli, "points", explode)
    code, out, err = run_cli(
        capsys, "fflv", "points", "--type", "A", "--rank", "2", "--weight", "1,0"
    )
    assert code == 3
    assert "fflv.minkowski_cardinality" in err
    assert out == ""


def test_out_file_writing(tmp_path, capsys):
    path = tmp_path / "points.json"
    code, out, _ = run_cli(
        capsys,
        "fflv", "points", "--type", "A", "--rank", "2", "--weight", "1,0",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert len(doc["points"]) == 3


@pytest.mark.parametrize("target", ["missing/out.json", "."])
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

    for name in ("run_grid", "points", "string_points"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv, str(tmp_path / target))
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
    ],
)
def test_max_dim_refused_before_enumeration(capsys, monkeypatch, argv):
    # A8 (3^8) has dimension 4.7e21: the Weyl dimension is checked before
    # any enumeration starts, so no point set is ever asked for
    def no_work(*args, **kwargs):
        raise AssertionError("enumeration started before the dimension was checked")

    for name in ("run_grid", "points", "string_points"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "above --max-dim" in err


def test_max_dim_admits_its_bound(capsys):
    # the adjoint of A2 has dimension 8, the largest case of the level-2 grid
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "2")
    assert run_cli(capsys, *argv, "--max-dim", "8")[0] == 0
    code, out, _ = run_cli(
        capsys, "fflv", "points", "--type", "A", "--rank", "2", "--weight", "1,0",
        "--max-dim", "3",
    )
    assert code == 0 and len(json.loads(out)["points"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        # C8 needs 313,616 table rows, C22 234,256 and A30 216,225 matrix entries
        ("verify", "comm", "--max-rank", "8"),
        ("verify", "comm", "--max-rank", "1000000000"),
        ("verify", "comm", "--max-rank", "3", "--max-dim", "122"),
        ("verify", "unimodular", "--max-rank", "22"),
        ("verify", "unimodular", "--max-rank", "3", "--max-dim", "80"),
        ("verify", "main", "--type", "C", "--rank", "32", "--max-level", "0"),
        ("verify", "main", "--type", "A", "--rank", "30", "--max-level", "0"),
    ],
)
def test_table_size_refused_before_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a table was built before its size was checked")

    monkeypatch.setattr(wedge, "power_action", no_work)
    monkeypatch.setattr(verify, "build_matrix", no_work)
    monkeypatch.setattr(cli, "build_matrix", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "above --max-dim" in err


def test_table_size_admits_its_bound(capsys):
    # C3 holds 123 table rows and 81 matrix entries
    for sweep, bound in (("comm", "123"), ("unimodular", "81")):
        code, out, err = run_cli(capsys, "verify", sweep, "--max-rank", "3", "--max-dim", bound)
        assert (code, err) == (0, "")
    assert out == GOLDEN_SWEEPS["unimodular", "3"]
    argv = ("verify", "main", "--type", "A", "--rank", "30", "--max-level", "0")
    assert run_cli(capsys, *argv, "--max-dim", "216225")[0] == 0
    # the default budget admits the comm sweep up to acting rank 7
    assert cli.comm_table_rows(7) <= cli.DEFAULT_MAX_DIM < cli.comm_table_rows(8)


@pytest.mark.parametrize("rank", ["0", "-1", "two"])
@pytest.mark.parametrize("command", [("fflv", "points"), ("verify", "main")])
def test_rank_validated_at_parse_time(capsys, monkeypatch, command, rank):
    def no_parse(*args, **kwargs):
        raise AssertionError("a weight was parsed for an invalid rank")

    monkeypatch.setattr(cli, "_parse_weight", no_parse)
    monkeypatch.setattr(cli, "run_grid", no_parse)
    extra = ("--weight", "0") if command[0] == "fflv" else ("--max-level", "0")
    code, out, err = run_cli(capsys, *command, "--type", "A", "--rank", rank, *extra)
    assert (code, out) == (2, "")
    assert "--rank must be a positive integer" in err


def test_library_value_error_is_internal_fault(capsys, monkeypatch):
    # input is validated at the front end, so a ValueError from the
    # library is a fault of the program, not of the user
    def fault(*args, **kwargs):
        raise ValueError("at least one weight pair is required")

    monkeypatch.setattr(cli, "run_grid", fault)
    argv = ("verify", "main", "--type", "A", "--rank", "2", "--max-level", "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert "internal error: at least one weight pair is required" in err
