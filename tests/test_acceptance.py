"""Acceptance suite: every criterion exact, one printed line per criterion.

All checks are exact combinatorial identities (tolerance zero, integer
arithmetic).  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import time
from collections import Counter
from itertools import chain
from math import lcm
from operator import mul

import pytest

from fflvstring.crystal import string_points
from fflvstring.degenmap import (
    apply_affine,
    apply_T,
    build_matrix,
    build_translation,
    embed_point_in_a,
    fold_vector,
    translation_and_zero_row,
)
from fflvstring.fflv import dyck_check_A, fundamental_images, fundamental_points, points
from fflvstring.rootsys import (
    LieType,
    RootLabel,
    base_weights,
    build_labels,
    dominant_weights,
    fundamental_weight,
    letter_histogram,
    pack,
    reduced_word,
    string_weight,
    vector_from_labels,
    weight_denominator,
    weyl_dim,
)
from fflvstring.verify import (
    all_passed,
    comm_sweep,
    fold_sweep,
    reports_to_json,
    run_grid,
    unimodular_sweep,
)
from fflvstring.wedge import restriction_block, unfold_dominates
from conftest import A2, A3, C1, C2, C3
from oracles import (
    demazure_character,
    dyck_points,
    label_matrix,
    label_translation,
    longest_word,
    root_coordinates,
)

A_GRID = [(LieType("A", n), 3) for n in range(1, 5)] + [(LieType("A", n), 2) for n in (5, 6)]
C_GRID = [(LieType("C", n), 2) for n in (2, 3, 4)]


@pytest.fixture(scope="module")
def timed_grid():
    """One serial run of the whole grid, family by family: the reports and
    the seconds each family took."""
    reports, seconds = [], {}
    for family, cases in (("A", A_GRID), ("C", C_GRID)):
        start = time.perf_counter()
        reports += run_grid(cases)
        seconds[family] = time.perf_counter() - start
    return reports, seconds


@pytest.fixture(scope="module")
def grid(timed_grid):
    """The grid's reports, shared by criteria 01, 02 and 07 to 11."""
    return timed_grid[0]


def record(num: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{title}]: {status}{suffix}")
    assert ok, f"criterion {num} failed: {title} {suffix}"


def test_criterion_01_main_theorem_type_a(timed_grid):
    grid, seconds = timed_grid
    reports = [r for r in grid if r.family == "A"]
    elapsed = seconds["A"]
    ok = all_passed(reports) and all(
        r.equal and r.fflv_count == r.string_count == r.weyl_dim for r in reports
    )
    spot = next(r for r in reports if (r.rank, r.weight) == (3, (1, 1, 1)))
    ok = ok and spot.fflv_count == 64
    ok = ok and elapsed < 300
    record(1, "main theorem, type A", ok, f"{len(reports)} cases, {elapsed:.3f}s")


def test_criterion_02_main_theorem_type_c(timed_grid):
    grid, seconds = timed_grid
    reports = [r for r in grid if r.family == "C"]
    elapsed = seconds["C"]
    ok = all_passed(reports) and all(
        r.equal and r.fflv_count == r.string_count == r.weyl_dim for r in reports
    )
    by_case = {(r.rank, r.weight): r.fflv_count for r in reports}
    ok = ok and by_case[(2, (0, 1))] == 5 and by_case[(3, (0, 1, 0))] == 14
    ok = ok and elapsed < 300
    record(2, "main theorem, type C", ok, f"{len(reports)} cases, {elapsed:.3f}s")


def test_criterion_03_unimodularity():
    lines, failures = unimodular_sweep(12)
    ok = not failures and len(lines) == 24
    # the walk along the word against the paper's label formulas; on the
    # formulas' matrix the triangular form with -1 on the diagonal is a claim
    for family in ("A", "C"):
        for n in range(1, 13):
            lt = LieType(family, n)
            mat = label_matrix(lt)
            ok = ok and build_matrix(lt) == mat
            ok = ok and all(
                row[r] == -1 and not any(row[:r]) for r, row in enumerate(mat)
            )
            ok = ok and all(
                build_translation(lt, fundamental_weight(n, i)) == label_translation(lt, i)
                for i in range(1, n + 1)
            )
    record(3, "unimodularity, entries, triangularity, label formulas, n <= 12", ok)


def test_criterion_04_printed_fixtures():
    ok = build_matrix(A3) == (
        (-1, -1, -1, -1, 0, -1),
        (0, -1, -1, 0, -1, 0),
        (0, 0, -1, 0, 0, 0),
        (0, 0, 0, -1, -1, -1),
        (0, 0, 0, 0, -1, 0),
        (0, 0, 0, 0, 0, -1),
    )
    ok = ok and build_matrix(C2) == (
        (-1, -1, 0, -1),
        (0, -1, -2, -1),
        (0, 0, -1, 0),
        (0, 0, 0, -1),
    )
    ok = ok and build_translation(A3, (0, 1, 0)) == vector_from_labels(
        A3,
        {
            RootLabel(1, 2): 1,
            RootLabel(2, 2): 1,
            RootLabel(1, 3): 1,
            RootLabel(2, 3): 1,
        },
    )
    ok = ok and build_translation(C3, (0, 1, 0)) == vector_from_labels(
        C3,
        {
            RootLabel(1, 2): 1,
            RootLabel(2, 2): 1,
            RootLabel(1, 3): 1,
            RootLabel(2, 3): 1,
            RootLabel(1, 2, True): 2,
            RootLabel(2, 2, True): 1,
            RootLabel(1, 1, True): 1,
        },
    )
    ok = ok and build_labels(A3) == (
        RootLabel(1, 3),
        RootLabel(2, 3),
        RootLabel(3, 3),
        RootLabel(1, 2),
        RootLabel(2, 2),
        RootLabel(1, 1),
    )
    ok = ok and reduced_word(A3) == (3, 4, 5, 2, 3, 1)
    record(4, "printed fixtures byte-for-byte", ok)


def test_criterion_05_oracle_equivalence():
    from fflvstring.wedge import oracle_string_points_A

    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        lt = LieType("A", n)
        for i in range(1, n + 1):
            if oracle_string_points_A(lt, i) != string_points(lt, fundamental_weight(n, i)):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120
    record(5, "wedge oracle equals crystal points, A n <= 6", ok, f"{elapsed:.1f}s")


def test_criterion_06_proposition_sweeps():
    # commutation equivalence table for acting ranks <= 6, both families
    comm_lines, comm_failures = comm_sweep(6)
    ok = not comm_failures and len(comm_lines) == 12
    # translation folding for n <= 4
    fold_lines, fold_failures = fold_sweep(4)
    ok = ok and not fold_failures and len(fold_lines) == 10
    # support restriction for all type-A fundamental string points
    for n in range(1, 5):
        lt = LieType("A", n)
        for i in range(1, n + 1):
            block = set(restriction_block(lt, i))
            for p in string_points(lt, fundamental_weight(n, i)):
                if not set(p) <= {0, 1}:
                    ok = False
                if any(x and k not in block for k, x in enumerate(p)):
                    ok = False
    # summand containment on all type-C fundamental points, n <= 3
    for n in (2, 3):
        ltc = LieType("C", n)
        lta = LieType("A", 2 * n - 1)
        for i in range(1, n + 1):
            w_a = fundamental_weight(lta.rank, i)
            for p in fundamental_points(ltc, i):
                a_img = apply_T(lta, w_a, embed_point_in_a(ltc, p))
                if fold_vector(a_img, n) != apply_T(ltc, fundamental_weight(n, i), p):
                    ok = False
                if not unfold_dominates(a_img, n, 2 * i - 1):
                    ok = False
    record(6, "proposition sweeps (comm, support, fold, summands)", ok)


def test_translation_is_linear_in_the_weight():
    # t_lambda = sum a_i t(omega_i) on every grid type and level, which
    # criterion 07 reads off the grid
    for lt, level in A_GRID + C_GRID:
        n = lt.rank
        units = [build_translation(lt, fundamental_weight(n, i)) for i in range(1, n + 1)]
        for w in dominant_weights(n, level):
            total = tuple(sum(a * t for a, t in zip(w, col)) for col in zip(*units))
            assert build_translation(lt, w) == total, (lt, w)
    for bad in ((0, 0, 1), (1, -1)):
        with pytest.raises(ValueError):
            build_translation(A2, bad)


def _grid_weights():
    """Every weight of the grid types, and A2 (127, 1), packed at 16 bits."""
    for lt, level in A_GRID + C_GRID:
        for w in dominant_weights(lt.rank, level):
            yield lt, w
    yield A2, (127, 1)


def test_summed_translation_is_the_per_weight_walk():
    # check_main sums the per-type t(omega_i); build_translation walks each
    # weight on its own
    for lt, w in _grid_weights():
        trans, _ = translation_and_zero_row(lt, w)
        assert trans == list(build_translation(lt, w)), (lt, w)


def test_zero_row_is_the_per_weight_pair_row():
    # check_main sums the per-type rows of the omega_i and puts D in the
    # scale column; the reference reads the weights of this weight and the
    # letters of its translation
    for lt, w in _grid_weights():
        d = weight_denominator(lt)
        src, tgt = base_weights(lt, w)
        hist = letter_histogram(lt, build_translation(lt, w))
        _, row0 = translation_and_zero_row(lt, w)
        assert row0 == [*(y - d * x for y, x in zip(tgt, hist)), d, *src], (lt, w)


def test_cached_fundamental_images_are_a_fresh_packing():
    # the images of each P(omega_i) are cached per type, matrix and width:
    # at both widths the grid uses, for the matrix and for the identity
    for lt, _ in A_GRID + C_GRID:
        mat = build_matrix(lt)
        zero = [0] * len(mat)
        for b in (8, 16):
            for i in range(1, lt.rank + 1):
                chains = fundamental_points(lt, i)
                images = tuple(pack(apply_affine(mat, zero, p), b) for p in chains)
                assert fundamental_images(lt, i, mat, b) == images, (lt, i, b)
                assert fundamental_images(lt, i, None, b) == tuple(pack(p, b) for p in chains)


def test_criterion_07_minkowski_containments(grid):
    # t_lambda is linear and P(omega_i + omega_j) = P(omega_i) + P(omega_j),
    # so T(P) = Q on omega_i, omega_j and omega_i + omega_j (all grid cases,
    # every grid level being at least 2) gives Q(omega_i) + Q(omega_j) =
    # Q(omega_i + omega_j), stronger than containment; symmetric in i and j
    status = {(r.family, r.rank, r.weight): r.status for r in grid}
    ok = True
    for lt, _ in A_GRID + C_GRID:
        for i in range(1, lt.rank + 1):
            for j in range(i, lt.rank + 1):
                w_i, w_j = fundamental_weight(lt.rank, i), fundamental_weight(lt.rank, j)
                pair = (w_i, w_j, tuple(a + b for a, b in zip(w_i, w_j)))
                ok = ok and all(status[lt.family, lt.rank, w] == "ok" for w in pair)
    record(7, "Minkowski containment, all fundamental pairs", ok)


def test_criterion_08_weight_twist_per_case(grid):
    ok = all(r.weight_twist is not None and r.twist_witness is None for r in grid)
    record(8, "one affine weight twist fits every pair per case", ok)


def test_criterion_09_dilation_counts(grid):
    # the dilations k * lambda are grid cases: A2 (k, 0) for k <= 3, C2 (0, k) for k <= 2
    def row(family, weight):
        r = next(r for r in grid if (r.family, r.rank, r.weight) == (family, 2, weight))
        ok = r.equal and r.fflv_count == r.string_count == r.weyl_dim
        return r.fflv_count if ok else None

    a_counts = [row("A", (k, 0)) for k in (1, 2, 3)]
    c_counts = [row("C", (0, k)) for k in (1, 2)]
    ok = a_counts == [3, 6, 10] and c_counts == [5, 14]
    record(9, "dilation counts match Weyl dimensions", ok)


def test_criterion_10_determinism(grid):
    first = reports_to_json(grid)
    second = reports_to_json(run_grid(A_GRID + C_GRID))
    threaded = reports_to_json(run_grid(A_GRID + C_GRID, threads=4))
    ok = first == second == threaded
    record(10, "byte-identical reports across runs and thread counts", ok)


def _characters_agree(r) -> bool:
    """Criterion 11 on one report.  Demazure's character formula fixes the
    weights of both sides with no crystal and no polytope: (a) the string
    points' weights are D_{i_1} ... D_{i_N}(e^lambda~) along the reduced
    word at the lifted weight, and (b) the printed twist pushes that
    character onto ch V(lambda) = D_{w0}(e^lambda).  Both are keyed by
    lambda - mu in simple-root coordinates, so the source weight lambda - d
    = M (lambda~ - c) + s reads d = off + M c, in integers over the lcm of
    the twist's denominators."""
    lt, w, twist = LieType(r.family, r.rank), r.weight, r.weight_twist
    lifted = tuple(x for a in w for x in (a, 0))[:-1]
    top = root_coordinates(lt.family, lt.target_rank, lifted)
    demazure = demazure_character(lt.family, lt.target_rank, reduced_word(lt), lifted)
    weights = Counter(
        tuple(t - x for t, x in zip(top, string_weight(lt, w, q))) for q in string_points(lt, w)
    )
    if weights != demazure or twist is None:
        return False
    source = root_coordinates(lt.family, lt.rank, w)
    off = [y - sum(map(mul, row, top)) - s for y, row, s in zip(source, twist.matrix, twist.shift)]
    scale = lcm(*(x.denominator for x in chain(off, *twist.matrix)))
    rows = [(int(scale * o), [int(scale * x) for x in row]) for o, row in zip(off, twist.matrix)]
    pushed = Counter()
    for c, mult in demazure.items():
        pushed[tuple(o + sum(map(mul, row, c)) for o, row in rows)] += mult
    weyl = demazure_character(lt.family, lt.rank, longest_word(lt.family, lt.rank), w)
    return pushed == {tuple(scale * x for x in d): mult for d, mult in weyl.items()}


def test_criterion_11_demazure_characters(grid):
    failing = sum(not _characters_agree(r) for r in grid)
    record(11, "Demazure characters of the string points and the printed twist",
           failing == 0, f"{len(grid)} cases, {failing} failing")


def test_criterion_12_dyck_path_inequalities():
    # P(lambda) by its defining inequalities, both families: the chain points
    # are the oracle's lattice points, weyl_dim many; at level 1 they are the
    # fundamental chains, and in type A the package's own path check holds
    start, failing = time.perf_counter(), 0
    cases = [(lt, w) for lt, level in A_GRID + C_GRID + [(C1, 4)]
             for w in dominant_weights(lt.rank, level)]
    for lt, w in cases:
        pts = points(lt, w)
        ok = list(pts) == sorted(dyck_points(lt, w)) and len(pts) == weyl_dim(lt, w)
        ok = ok and (sum(w) != 1 or fundamental_points(lt, w.index(1) + 1) == pts)
        failing += not (ok and (lt.family == "C" or dyck_check_A(lt.rank, w, pts)))
    elapsed = time.perf_counter() - start
    record(12, "chain points are the Dyck inequalities' lattice points", failing == 0,
           f"{len(cases)} cases, {failing} failing, {elapsed:.3f}s")
