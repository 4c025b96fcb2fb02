"""Exact linear algebra over integers and rationals.

Everything in this package is an exact combinatorial identity, so no floats
appear anywhere: determinants are computed fraction-free over the integers
and linear systems are solved over ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, fraction-free)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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

