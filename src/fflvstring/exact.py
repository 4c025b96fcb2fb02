"""Exact linear algebra over integers and rationals.

Everything in this package is an exact combinatorial identity, so no floats
appear anywhere: determinants come from exact Gaussian elimination that
touches only the rows with a nonzero entry in the pivot column, and linear
systems are solved over ``fractions.Fraction``.
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


def solve_linear(
    rows: Sequence[Sequence], rhs: Sequence
) -> tuple[list[Fraction], int] | None:
    """Solve ``A x = b`` exactly over the rationals.

    Returns ``(solution, rank)`` with free variables set to zero, or ``None``
    if the system is inconsistent.  ``rows`` may be ragged-free ints or
    Fractions; the computation promotes everything to ``Fraction``.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    n_rows = len(rows)
    n_cols = len(rows[0]) if n_rows else 0
    m = [
        [Fraction(x) for x in row] + [Fraction(y)]
        for row, y in zip(rows, rhs)
    ]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    for i in range(r, n_rows):
        if m[i][n_cols] != 0:
            return None
    sol = [Fraction(0)] * n_cols
    for i, c in enumerate(pivots):
        sol[c] = m[i][n_cols]
    return sol, len(pivots)

