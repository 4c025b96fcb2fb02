"""Fixtures and vocabulary shared by the test modules."""

import tracemalloc

import pytest
from hypothesis import settings

from fflvstring import crystal, degenmap
from fflvstring.cli import main
from fflvstring.rootsys import LieType

# the seed rule, stated once: every property test draws the same examples on
# every run, so a failure found once is found again, and its first example
# fills the per-type memos, so its time says nothing about the deadline
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

A1 = LieType("A", 1)
A2 = LieType("A", 2)
A3 = LieType("A", 3)
A4 = LieType("A", 4)
C1 = LieType("C", 1)
C2 = LieType("C", 2)
C3 = LieType("C", 3)

# the per-type label rows, zero rows and per-support bases read the matrix,
# the reduced word and the fundamental chains
TWIST_MEMOS = (degenmap.label_rows, degenmap.support_basis, degenmap.fundamental_rows)
# the walk's step tables read the reduced word and hold the key tables
WALK_MEMOS = (crystal._steps, crystal._signature_tables)


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of ``cli.main`` on argv."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corrupted_matrix(lt):
    """The matrix of T for lt with its first diagonal entry lowered by one."""
    mat = [list(row) for row in degenmap.build_matrix(lt)]
    mat[0][0] -= 1
    return tuple(tuple(row) for row in mat)


def record_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record the arguments of each call: the list
    of their tuples, in call order."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


def traced_memory(call, *args):
    """(result, current, peak) of one call under tracemalloc, in bytes, the
    current size read while the result is still held."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, *tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def _clear(memos):
    for memo in memos:
        memo.cache_clear()


@pytest.fixture
def fresh_twist_memos():
    # a test that patches what the twist memos read, or fills them with
    # perturbed matrices, starts and ends with them empty
    _clear(TWIST_MEMOS)
    yield
    _clear(TWIST_MEMOS)


@pytest.fixture
def fresh_walk_steps():
    # a test that patches the reduced word or the key scan of the walk starts
    # and ends with its tables empty
    _clear(WALK_MEMOS)
    yield
    _clear(WALK_MEMOS)
