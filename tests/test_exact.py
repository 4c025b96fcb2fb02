"""Exact determinants against the Leibniz expansion."""

from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflvstring.exact import det_int


def _leibniz(mat):
    """Sum over permutations of sign times the product of the chosen entries."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)
        )
        total += (-1) ** inversions * prod(mat[r][perm[r]] for r in range(n))
    return total


@settings(max_examples=400)
@given(st.data())
def test_det_int_matches_leibniz(data):
    n = data.draw(st.integers(0, 5))
    entry = st.integers(-3, 3)
    mat = data.draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    shape = data.draw(st.sampled_from(["free", "swap", "singular"]))
    if n and shape == "swap":
        # a zero leading pivot with a nonzero entry below it forces a row swap
        mat[0][0] = 0
        if n > 1:
            mat[-1][0] = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    elif n and shape == "singular":
        # a repeated row, or a zero 1x1 matrix
        mat[-1] = list(mat[0]) if n > 1 else [0]
    det = det_int(mat)
    assert type(det) is int
    assert det == _leibniz(mat)
    if shape == "singular" and n:
        assert det == 0


def test_det_int_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="not square"):
        det_int([[1, 2, 3], [4, 5, 6]])
