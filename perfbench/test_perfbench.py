"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run(name, trace):
    record = run.run(name, seed=1, seconds=1, trace=trace, tiny=True)
    result = record["result"]
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(capsys, trace, key):
    run.print_report(run.run("sweeps", seed=3, seconds=1, trace=trace, tiny=True))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCH[key]}
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


def test_corrupted_matrix_raises_failed_frac(monkeypatch):
    original = workloads.verify.check_main

    def corrupted(lt, w):
        mat = [list(row) for row in workloads.degenmap.build_matrix(lt)]
        mat[0][0] -= 1
        return original(lt, w, matrix=tuple(tuple(row) for row in mat))

    monkeypatch.setattr(workloads.verify, "check_main", corrupted)
    record = run.run("grid", seed=1, seconds=1, trace=False, tiny=True)
    assert record["failed_frac"] > 0
    assert not record["result"]["correct"]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
