"""Independent test oracles that share no code with what they check.

Dimension counts by two routes: triangular-pattern enumeration for family A
and Freudenthal's multiplicity recursion for both families.  Reducedness of
a word by the root criterion, and Demazure characters by Demazure's
operators, both on the same root data, with a reduced word of the longest
element and the simple-root coordinates of a weight.  The paper's label
formulas for the linear part and the fundamental translations of the affine
map, which read only the label order of ``build_labels``, and so do the
Dyck path inequalities of P(lambda) and their lattice points.  The linear
part for any word and Cartan matrix, by back substitution.  The weight
twist by Gauss-Jordan elimination on the whole system.  Everything is
exact integer or ``Fraction`` arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from itertools import product

from fflvstring.rootsys import build_labels


def gt_dim(coeffs: tuple[int, ...]) -> int:
    """Family-A dimension by counting interlacing triangular patterns."""
    n = len(coeffs)
    top = tuple(sum(coeffs[k:]) for k in range(n)) + (0,)

    @lru_cache(maxsize=None)
    def count(row: tuple[int, ...]) -> int:
        if len(row) == 1:
            return 1
        total = 0
        ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
        for nxt in product(*ranges):
            total += count(nxt)
        return total

    return count(top)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _root_data(family: str, rank: int):
    n = rank
    if family == "A":
        dim = n + 1
        def unit(i):
            return tuple(1 if t == i else 0 for t in range(dim))
        simple = [
            tuple(a - b for a, b in zip(unit(i), unit(i + 1))) for i in range(n)
        ]
        positive = []
        for i in range(dim):
            for j in range(i + 1, dim):
                positive.append(tuple(a - b for a, b in zip(unit(i), unit(j))))
        rho = tuple(n - k for k in range(dim))
    else:
        dim = n
        def unit(i):
            return tuple(1 if t == i else 0 for t in range(dim))
        simple = [
            tuple(a - b for a, b in zip(unit(i), unit(i + 1)))
            for i in range(n - 1)
        ]
        simple.append(tuple(2 * x for x in unit(n - 1)))
        positive = []
        for i in range(dim):
            positive.append(tuple(2 * x for x in unit(i)))
            for j in range(i + 1, dim):
                positive.append(tuple(a - b for a, b in zip(unit(i), unit(j))))
                positive.append(tuple(a + b for a, b in zip(unit(i), unit(j))))
        rho = tuple(n - k for k in range(dim))
    return simple, positive, rho


def _height(family: str, rank: int, alpha) -> int:
    # expansion over the simple roots via partial sums of the coordinates
    if family == "A":
        return sum(sum(alpha[: k + 1]) for k in range(rank))
    partial = [sum(alpha[: k + 1]) for k in range(rank - 1)]
    last, rem = divmod(sum(alpha), 2)
    assert rem == 0
    return sum(partial) + last


def freudenthal_dim(family: str, rank: int, coeffs: tuple[int, ...]) -> int:
    """Module dimension by Freudenthal's recursion over the weight system.

    Weights are walked breadth-first from the top by subtracting simple
    roots; the recursion only ever looks upward along root strings, whose
    length is bounded by depth // height(alpha).
    """
    simple, positive, rho = _root_data(family, rank)
    n = rank
    lam = tuple(sum(coeffs[k:]) for k in range(n)) + (
        (0,) if family == "A" else ()
    )
    pos_ht = [(alpha, _height(family, rank, alpha)) for alpha in positive]
    top = tuple(a + b for a, b in zip(lam, rho))
    target = _dot(top, top)
    mults = {lam: 1}
    level = [lam]
    depth = 1
    total = 1
    while level:
        cands = set()
        for mu in level:
            for a in simple:
                cands.add(tuple(x - y for x, y in zip(mu, a)))
        level = []
        for cand in sorted(cands):
            shifted = tuple(a + b for a, b in zip(cand, rho))
            c = target - _dot(shifted, shifted)
            if c <= 0:
                continue
            s = 0
            for alpha, ht in pos_ht:
                for k in range(1, depth // ht + 1):
                    up = tuple(x + k * y for x, y in zip(cand, alpha))
                    m_up = mults.get(up, 0)
                    if m_up:
                        s += m_up * _dot(up, alpha)
            num, rem = divmod(2 * s, c)
            assert rem == 0, (family, rank, coeffs, cand)
            if num > 0:
                mults[cand] = num
                level.append(cand)
                total += num
        depth += 1
    return total


def word_is_reduced(family: str, rank: int, word) -> bool:
    """Root criterion (Humphreys 1990, Reflection Groups and Coxeter Groups,
    1.6-1.7): i_1 ... i_N is reduced iff every s_{i_1} ... s_{i_{k-1}}(alpha_{i_k})
    is a positive root.  Roots in the orthonormal basis of ``_root_data``."""
    simple, positive, _ = _root_data(family, rank)
    for k, i in enumerate(word):
        v = simple[i - 1]
        for j in reversed(word[:k]):
            a = simple[j - 1]
            c = 2 * _dot(v, a) // _dot(a, a)
            v = tuple(x - c * y for x, y in zip(v, a))
        if v not in positive:
            return False
    return True


def cartan(family: str, rank: int) -> list[list[int]]:
    """cartan[i][j] = <alpha_{j+1}, alpha_{i+1}^vee> = 2 (alpha_{j+1},
    alpha_{i+1}) / (alpha_{i+1}, alpha_{i+1}), on the simple roots of
    ``_root_data`` (type C: alpha_n = 2 e_n is the long root)."""
    simple, _, _ = _root_data(family, rank)
    return [[2 * _dot(a, b) // _dot(a, a) for b in simple] for a in simple]


def demazure_character(family: str, rank: int, word, coeffs) -> dict[tuple[int, ...], int]:
    """D_{i_1} ... D_{i_N}(e^lambda), lambda = sum_k coeffs[k-1] omega_k, D_{i_N}
    applied first, as {simple-root coordinates of lambda - mu: coefficient}.

    With n = <mu, alpha_j^vee>, D_j(e^mu) = (e^mu - e^(s_j mu - alpha_j)) /
    (1 - e^-alpha_j) is e^mu + e^(mu - alpha_j) + ... + e^(mu - n alpha_j) for
    n >= 0, 0 for n = -1 and -(e^(mu + alpha_j) + ... + e^(mu - (n+1) alpha_j))
    for n <= -2 (Demazure 1974).  Zero coefficients are dropped.
    """
    a = cartan(family, rank)
    char = {(0,) * rank: 1}
    for j in reversed(word):
        out: dict[tuple[int, ...], int] = {}
        for c, mult in char.items():
            n = coeffs[j - 1] - sum(x * a[j - 1][i] for i, x in enumerate(c))
            sign, ts = (1, range(n + 1)) if n >= 0 else (-1, range(n + 1, 0))
            for t in ts:  # the term e^(mu - t alpha_j)
                key = c[: j - 1] + (c[j - 1] + t,) + c[j:]
                out[key] = out.get(key, 0) + sign * mult
        char = {c: mult for c, mult in out.items() if mult}
    return char


def longest_word(family: str, rank: int) -> tuple[int, ...]:
    """A reduced word of w0: (1)(2 1)(3 2 1)... in type A, and in type C
    (1 ... n)^n, the Coxeter element to the power h / 2 = n."""
    if family == "A":
        return tuple(j for k in range(1, rank + 1) for j in range(k, 0, -1))
    return tuple(range(1, rank + 1)) * rank


def root_coordinates(family: str, rank: int, coeffs) -> tuple[Fraction, ...]:
    """sum_k coeffs[k-1] omega_k in simple-root coordinates: the x with
    sum_j cartan[i][j] x_j = coeffs[i] for every i, by Gauss-Jordan."""
    _, (x,) = _gauss_jordan(cartan(family, rank), [(c,) for c in coeffs])
    return tuple(x)


def _column_key(lab, n: int) -> int:
    # the column order 1 < ... < n = n-bar < ... < 1-bar
    return 2 * n - lab.col if lab.barred else lab.col


def dyck_paths(lt) -> list[tuple[list[int], int, int]]:
    """The Dyck paths of P(lambda) as (label positions, i, j): the path's
    bound is a_i + ... + a_j.  A cell is (row r, column key K), r <= K <= n
    in type A (Feigin-Fourier-Littelmann 2011, Transform. Groups 16) and r
    <= K <= 2n - r in type C (their symplectic paths, IMRN 2011).  A path
    starts at (i, i) and steps to (r, K+1) or (r+1, K); one that ends at
    (j, j) is bounded by a_i + ... + a_j, and in type C one that ends at the
    long root (j, 2n - j), j < n, by a_i + ... + a_n."""
    n, long_roots = lt.rank, lt.family == "C"
    pos = {(lab.row, _column_key(lab, n)): k for k, lab in enumerate(build_labels(lt))}
    paths = []

    def walk(i: int, r: int, key: int, cells: list[int]) -> None:
        cells = cells + [pos[r, key]]
        if key == r:
            paths.append((cells, i, r))
        if long_roots and r < n and key == 2 * n - r:
            paths.append((cells, i, n))
        for step in ((r, key + 1), (r + 1, key)):
            if step in pos:
                walk(i, *step, cells)

    for i in range(1, n + 1):
        walk(i, i, i, [])
    return paths


def dyck_points(lt, coeffs) -> list[tuple[int, ...]]:
    """The lattice points of the Dyck path inequalities, in lex order: a
    depth-first fill of the labels in ``build_labels`` order, each
    coordinate at most the level and cut where a path through it meets its
    bound, so a looser system fills a larger finite box."""
    paths = dyck_paths(lt)
    slack = [sum(coeffs[i - 1 : j]) for _, i, j in paths]
    through = [[] for _ in build_labels(lt)]
    for p, (cells, _, _) in enumerate(paths):
        for k in cells:
            through[k].append(p)
    level, vec, out = sum(coeffs), [0] * len(through), []

    def fill(k: int) -> None:
        if k == len(vec):
            out.append(tuple(vec))
            return
        x = 0
        while True:
            vec[k] = x
            fill(k + 1)
            if x == level or any(slack[p] == 0 for p in through[k]):
                break
            x += 1
            for p in through[k]:
                slack[p] -= 1
        for p in through[k]:
            slack[p] += x
        vec[k] = 0

    fill(0)
    return out


def label_matrix(lt) -> tuple[tuple[int, ...], ...]:
    """The linear part by the paper's label formulas, descending label basis.

    Family A sends e_{a,b} to -(sum of e_{a,c} for c from b to n, plus
    e_{c,b} for c < a).  Family C sends e_{a,b} to -(sum of e_{a,c} for
    columns c from b up to a-bar in the column order, plus e_{c,b} +
    e_{c,a-bar} for c < a); when b equals a-bar the two lower sums coincide
    and produce the -2 entries.
    """
    n = lt.rank
    labels = build_labels(lt)
    idx = {(lab.row, lab.col, lab.barred): k for k, lab in enumerate(labels)}
    columns = [(j, j, False) for j in range(1, n + 1)]
    if lt.family == "C":
        columns += [(2 * n - j, j, True) for j in range(1, n)]
    mat = [[0] * len(labels) for _ in labels]
    for pos, lab in enumerate(labels):
        a, b = lab.row, lab.col
        if lt.family == "A":
            for c in range(b, n + 1):
                mat[idx[a, c, False]][pos] -= 1
            for c in range(1, a):
                mat[idx[c, b, False]][pos] -= 1
            continue
        abar = (a, True) if a < n else (n, False)
        for key, col, barred in columns:
            if _column_key(lab, n) <= key <= 2 * n - a:
                mat[idx[a, col, barred]][pos] -= 1
        for c in range(1, a):
            mat[idx[c, b, lab.barred]][pos] -= 1
            mat[idx[(c,) + abar]][pos] -= 1
    return tuple(tuple(row) for row in mat)


def label_translation(lt, i: int) -> tuple[int, ...]:
    """The translation of the i-th fundamental weight by the paper's label
    formulas, descending label basis."""
    n = lt.rank

    def coeff(lab) -> int:
        if lt.family == "A":
            return 1 if lab.row <= i <= lab.col else 0
        key, key_bar = _column_key(lab, n), 2 * n - lab.row
        if lab.row <= i and (i <= key < 2 * n - i or key == key_bar):
            return 1
        return 2 if 2 * n - i <= key < key_bar else 0

    return tuple(coeff(lab) for lab in build_labels(lt))


def slack_inverse(word, cartan) -> tuple[tuple[int, ...], ...]:
    """-R^{-1} column by column, for the slack matrix R of any word over any
    Cartan matrix (cartan[i][j] = <alpha_{j+1}, alpha_{i+1}^vee>): 1 on the
    diagonal and R[k][l] = cartan[i_k - 1][i_l - 1] for l > k.  Column j
    solves R x = -e_j by back substitution."""
    size = len(word)
    cols = []
    for j in range(size):
        x = [0] * size
        for k in range(j, -1, -1):
            row = cartan[word[k] - 1]
            x[k] = -(k == j) - sum(row[word[l] - 1] * x[l] for l in range(k + 1, j + 1))
        cols.append(x)
    return tuple(zip(*cols))


def _gauss_jordan(rows, rhs):
    """Rank of rows * x = rhs and, per right-hand side column, its
    free-variables-zero solution, or None where it is inconsistent.  Each
    row is scaled to integers and reduced fraction-free, cut by its gcd."""
    width = len(rows[0])
    mat = []
    for row, ys in zip(rows, rhs):
        xs = [Fraction(x) for x in [*row, *ys]]
        d = lcm(*(x.denominator for x in xs))
        mat.append([int(x * d) for x in xs])
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        top = mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f, g = top[c], mat[i][c]
                row = [f * a - g * b for a, b in zip(mat[i], top)]
                k = gcd(*row)
                mat[i] = [a // k for a in row] if k > 1 else row
        pivots.append(c)
    sols = []
    for t in range(width, len(mat[0])):
        sol = [Fraction(0)] * width
        for i, c in enumerate(pivots):
            sol[c] = Fraction(mat[i][t], mat[i][c])
        consistent = not any(row[t] for row in mat[len(pivots):])
        sols.append(sol if consistent else None)
    return len(pivots), sols


def twist_oracle(m: int, pairs):
    """source = matrix * companion + shift over (source, companion) weight
    pairs of a rank-m companion, solved on the full system coordinate by
    coordinate, no basis, no scaling.  Returns ((matrix, shift, unique),
    None), ``unique`` when the system has full rank, or (None, the first
    distinct pair after which some coordinate has no solution)."""
    uniq = list(dict.fromkeys((tuple(s), tuple(t)) for s, t in pairs))
    rows = [list(t) + [1] for _, t in uniq]
    rhs = [s for s, _ in uniq]
    rank, sols = _gauss_jordan(rows, rhs)
    for r, sol in enumerate(sols):
        if sol is None:
            # a prefix stays inconsistent once it is: bisect for the first
            def broken(k):
                return _gauss_jordan(rows[:k], [(s[r],) for s in rhs[:k]])[1] == [None]

            k = bisect_left(range(1, len(uniq) + 1), True, key=broken)
            return None, uniq[k]
    matrix = tuple(tuple(sol[:m]) for sol in sols)
    return (matrix, tuple(sol[m] for sol in sols), rank == m + 1), None
