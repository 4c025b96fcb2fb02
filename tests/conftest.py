"""Fixtures shared by the test modules."""

import pytest

from fflvstring import degenmap


@pytest.fixture
def fresh_twist_memos():
    # the per-type label rows and per-support bases read the matrix, the
    # reduced word and the fundamental chains: a test that patches one of
    # them, or fills them with perturbed matrices, starts and ends empty
    degenmap.label_rows.cache_clear()
    degenmap.support_basis.cache_clear()
    yield
    degenmap.label_rows.cache_clear()
    degenmap.support_basis.cache_clear()
