"""Exact integer determinants.

Everything in this package is an exact combinatorial identity, so no floats
appear anywhere: determinants come from exact Gaussian elimination that
touches only the rows with a nonzero entry in the pivot column.  No other
package module imports this one: the matrix is triangular by construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by exact sparse elimination.

    Rows whose entry in the pivot column is already zero are left alone, and
    only the rows an elimination step touches are promoted to ``Fraction``,
    so a triangular matrix costs one column scan per pivot.  The result is
    the product of the pivots times the sign of the row swaps.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        pivot = m[k]
        det *= pivot[k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = Fraction(m[i][k]) / pivot[k]
                m[i] = [a - f * b for a, b in zip(m[i], pivot)]
    return int(det)

