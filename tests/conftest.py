"""Fixtures shared by the test modules."""

import pytest

from fflvstring import crystal, degenmap

# the per-type label rows, zero rows and per-support bases read the matrix,
# the reduced word and the fundamental chains
TWIST_MEMOS = (degenmap.label_rows, degenmap.support_basis, degenmap.fundamental_rows)
# the walk's step tables read the reduced word and hold the key tables
WALK_MEMOS = (crystal._steps, crystal._signature_tables)


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
