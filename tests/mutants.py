"""A catalog of one-edit mutants of the package and the tests that kill them.

Each entry is ``(file, old, new, killers)``: ``old`` occurs exactly once in
``file`` (a path from the repository root), the mutant replaces it with
``new``, and each of ``killers`` (pytest node ids) fails on the mutant.
``tests/test_source.py`` checks the first fact, and that each killer names
a test function of its file, in every tier-1 run, so the catalog cannot rot
unseen.

Run as a script, ``python tests/mutants.py [PATH ...]`` copies the
repository to a temporary directory per mutant, applies it and runs
``pytest -x`` there on each killer, then, if every killer passes, on the
whole suite.  It runs every entry, or with PATHs only the entries whose
file is one of them (a PATH that no entry names exits 2).  It prints one
verdict per mutant, numbered by its place in the catalog, and exits 1 if a
mutant survives the suite, a killer passes on its mutant or a killer names
no test (``STALE``).  A killed mutant costs a few seconds, a survivor a
whole tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = "src/fflvstring/cli.py"
CRYSTAL = "src/fflvstring/crystal.py"
DEGENMAP = "src/fflvstring/degenmap.py"
FFLV = "src/fflvstring/fflv.py"
ORACLES = "tests/oracles.py"
ROOTSYS = "src/fflvstring/rootsys.py"
VERIFY = "src/fflvstring/verify.py"
WEDGE = "src/fflvstring/wedge.py"

# the text of cli.LEAVES between the points leaves' two handler kinds
_BETWEEN_POINTS_KINDS = (
    ")\n    ),\n"
    '    ("stringpoly", "points"): (\n'
    '        "emit a point document",\n'
    "        partial(\n"
    "            _add_points_args,\n"
    '            max_dim_text=f"{_DIM_TEXT}, or a type whose label count squared "\n'
    '            f"exceeds both this and {DEFAULT_MAX_DIM}",\n'
    "        ),\n"
    "        partial(_cmd_points, "
)

MUTANTS = [
    # the twist fit on per-type label rows
    (
        DEGENMAP,
        "for i in support for p in fundamental_points(lt, i)",
        "for i in range(1, lt.rank + 1) for p in fundamental_points(lt, i)",
        (
            "tests/test_verify.py::test_report_json_digest_fixture",
            "tests/test_degenmap.py::test_support_path_matches_the_full_pair_list",
        ),
    ),
    (
        DEGENMAP,
        "label_rows(lt, mat), {}",
        "label_rows(lt, build_matrix(lt)), {}",
        (
            "tests/test_verify.py::test_corrupted_a4_matrix_twist_witness",
            "tests/test_degenmap.py::test_support_path_matches_the_full_pair_list",
        ),
    ),
    (
        DEGENMAP,
        "for k in sorted(units, reverse=True)",
        "for k in sorted(units)",
        (
            "tests/test_verify.py::"
            "test_check_main_fits_label_rows_per_support_and_one_zero_row_per_case",
            "tests/test_degenmap.py::test_support_path_matches_the_full_pair_list",
        ),
    ),
    (
        DEGENMAP,
        "breaks[min(breaks)] if breaks else None",
        "breaks[max(breaks)] if breaks else None",
        # both references fit by the Gauss-Jordan oracle, not the package's
        # elimination
        (
            "tests/test_degenmap.py::test_weight_twist_matches_full_system_oracle",
            "tests/test_verify.py::test_integer_kernel_matches_staged_reference",
        ),
    ),
    # gates and verdicts that once survived tier-1
    (
        DEGENMAP,
        'keep = ones if lt.family == "A" else 3 * ones',
        'keep = 3 * ones if lt.family == "A" else 3 * ones',
        ("tests/test_degenmap.py::test_entry_range_gate_rejects_minus_two_in_type_a",),
    ),
    (
        FFLV,
        '    if len(pts) != expected:\n        raise VerificationError(\n'
        '            "fflv.minkowski_cardinality"',
        '    if len(pts) > expected:\n        raise VerificationError(\n'
        '            "fflv.minkowski_cardinality"',
        ("tests/test_fflv.py::test_minkowski_cardinality_gate_trips_on_a_short_sum",),
    ),
    (
        ROOTSYS,
        '    if rem:\n        raise VerificationError(\n'
        '            "rootsys.weyl_dim_integral"',
        '    if False:\n        raise VerificationError(\n'
        '            "rootsys.weyl_dim_integral"',
        ("tests/test_rootsys.py::test_weyl_dim_integral_gate_trips",),
    ),
    # the one Weyl product: type C without its sum factors, and a skip of
    # the factors equal to (j - i + 1) / (j - i), not of those equal to 1
    (
        ROOTSYS,
        "            if c and j < n and v[i] + v[j] != 2 * n - i - j:\n",
        "            if False:\n",
        (
            "tests/test_rootsys.py::test_weyl_dim_fundamental_formulas",
            "tests/test_rootsys.py::test_weyl_dim_against_freudenthal",
        ),
    ),
    (
        ROOTSYS,
        "            if v[i] - v[j] != j - i:\n",
        "            if v[i] - v[j] != j - i + 1:\n",
        (
            "tests/test_rootsys.py::test_weyl_dim_fundamental_formulas",
            "tests/test_rootsys.py::test_weyl_dim_against_pattern_count",
        ),
    ),
    (
        VERIFY,
        "counted = self.fflv_count == self.string_count == self.weyl_dim",
        "counted = self.fflv_count == self.string_count",
        ("tests/test_verify.py::test_report_fails_when_both_counts_miss_the_weyl_dimension",),
    ),
    (
        VERIFY,
        "WITNESS_CAP = 10",
        "WITNESS_CAP = 11",
        ("tests/test_verify.py::test_report_lists_ten_witnesses_per_direction",),
    ),
    # the column-tableau crystal walk
    (
        CRYSTAL,
        "for letter, c in enumerate(row) if c",
        "for letter, c in enumerate(row[: rank + 2]) if c",
        (
            "tests/test_crystal.py::test_signature_table_matches_letter_scan",
            "tests/test_crystal.py::test_string_round_trip",
        ),
    ),
    # an element decoded to letters one below their own
    (
        CRYSTAL,
        "bit % width + 1 for bit in range(elem.bit_length())",
        "bit % width for bit in range(elem.bit_length())",
        (
            "tests/test_crystal.py::test_signature_table_matches_letter_scan",
            "tests/test_crystal.py::test_string_round_trip",
        ),
    ),
    # its key scan reading the highest bit first
    (
        CRYSTAL,
        "        low = key & -key\n",
        "        low = 1 << key.bit_length() >> 1\n",
        (
            "tests/test_crystal.py::test_bracket_scan_matches_stepwise_rule",
            "tests/test_crystal.py::test_signature_table_matches_letter_scan",
            "tests/test_crystal.py::test_string_round_trip",
        ),
    ),
    # a plus cancels the first unmatched minus, not the nearest
    (
        CRYSTAL,
        "            minus.pop()\n",
        "            minus.pop(0)\n",
        (
            "tests/test_crystal.py::test_bracket_scan_matches_stepwise_rule",
            "tests/test_crystal.py::test_signature_table_matches_letter_scan",
        ),
    ),
    # the depth-first walk core: a non-head expanded as a head, t up to c - 1,
    # no final count, the step table built from the word first letter first,
    # the last letter's child 0 not handed to the consumer, and the replay of
    # demazure_set reading the next letter's key table
    (
        CRYSTAL,
        "            if deltas is None:\n                break\n",
        "            if deltas is None:\n                deltas = ()\n",
        (
            "tests/test_crystal.py::test_core_leaf_weights_are_the_demazure_character",
            "tests/test_crystal.py::test_string_round_trip",
        ),
    ),
    (
        CRYSTAL,
        "            for delta in deltas:\n                child ^= delta\n",
        "            for delta in deltas[:-1]:\n                child ^= delta\n",
        (
            "tests/test_crystal.py::test_core_leaf_weights_are_the_demazure_character",
            "tests/test_crystal.py::test_string_round_trip",
        ),
    ),
    (
        CRYSTAL,
        "    if leaves != (expected := weyl_dim(lt, w)):\n",
        "    if False:\n",
        (
            "tests/test_crystal.py::test_walk_given_a_wrong_count_raises",
            "tests/test_crystal.py::test_per_letter_count_gate",
        ),
    ),
    (
        CRYSTAL,
        "        for k, j in enumerate(reversed(word))\n",
        "        for k, j in enumerate(word)\n",
        (
            "tests/test_crystal.py::test_string_round_trip",
            "tests/test_crystal.py::test_core_leaf_weights_are_the_demazure_character",
            "tests/test_crystal.py::test_core_strings_of_the_nice_word_are_littelmanns_polytope",
        ),
    ),
    (
        CRYSTAL,
        "                take(s)\n                for _ in deltas:\n",
        "                for _ in deltas:\n",
        (
            "tests/test_acceptance.py::test_criterion_11_demazure_characters",
            "tests/test_crystal.py::test_core_leaf_weights_are_the_demazure_character",
            "tests/test_crystal.py::test_core_strings_of_the_nice_word_are_littelmanns_polytope",
        ),
    ),
    (
        CRYSTAL,
        "            letters, table = tables[j]\n",
        "            letters, table = tables[reduced_word(lt)[-k - 2]]\n",
        ("tests/test_crystal.py::test_string_round_trip",),
    ),
    # criterion 07 read off the grid: a per-weight translation (the walk of
    # build_translation) off by one only on non-fundamental weights
    # (check_main sums the fundamental ones, and the tests compare the two),
    # and a sum that skips the last copy of a fundamental set
    (
        DEGENMAP,
        "lifted_coeffs(lt, weight), [0] * len(reduced_word(lt))",
        "lifted_coeffs(lt, weight), [-(sum(weight) > 1)] + [0] * (len(reduced_word(lt)) - 1)",
        (
            "tests/test_acceptance.py::test_translation_is_linear_in_the_weight",
            "tests/test_acceptance.py::test_summed_translation_is_the_per_weight_walk",
        ),
    ),
    (
        FFLV,
        "        for k in range(a):\n            grown = {",
        "        for k in range(a - 1 or 1):\n            grown = {",
        ("tests/test_acceptance.py::test_criterion_07_minkowski_containments",),
    ),
    # the packed images of the commutation tables
    (
        WEDGE,
        "has[t - 1] & ~has[t]",
        "has[t - 1]",
        (
            "tests/test_wedge.py::test_packed_generators_decode_to_act_simple",
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
        ),
    ),
    (
        WEDGE,
        "num * fx[o] == den * c",
        "den * fx[o] == num * c",
        ("tests/test_wedge.py::test_proportional_needs_one_shared_ratio",),
    ),
    # the equivalence test wedge by wedge: its ratio inverted, its key sets
    # not compared, its factors unchecked on a power above the dimension;
    # and a product whose factors are checked only while the vector lives
    (
        WEDGE,
        "if num * c != den * fy[key]:",
        "if den * c != num * fy[key]:",
        (
            "tests/test_wedge.py::test_sim_check_ops_shared_ratio_other_than_one",
            "tests/test_wedge.py::test_sim_check_ops_needs_one_shared_ratio",
        ),
    ),
    (
        WEDGE,
        "        if fx.keys() != fy.keys():\n            return False\n        for key, c in fx.items():\n",
        "        for key, c in fx.items():\n",
        (
            "tests/test_wedge.py::test_sim_check_matches_commutation",
            "tests/test_wedge.py::test_sim_check_ops_matches_stepwise_reference",
        ),
    ),
    (
        WEDGE,
        "    for j in (*ops_x, *ops_y):\n        _steps(j, family, rank)\n",
        "",
        ("tests/test_wedge.py::test_sim_check_ops_outside_the_powers",),
    ),
    (
        WEDGE,
        "    for j in ops:\n        _steps(j, family, rank)\n",
        "",
        ("tests/test_wedge.py::test_act_sequence_checks_every_factor",),
    ),
    # a fundamental index outside 1..rank read as the zero weight, by the one
    # gate or by the chains of P(omega_i) built without it; and an empty
    # output path read as no path
    (
        ROOTSYS,
        "    if type(rank) is not int or type(i) is not int or not 1 <= i <= rank:\n",
        "    if False:\n",
        (
            "tests/test_wedge.py::test_checks_refuse_a_fundamental_weight_that_does_not_exist",
            "tests/test_fflv.py::test_fundamental_index_range",
        ),
    ),
    (
        FFLV,
        "    expected = weyl_dim(lt, fundamental_weight(n, i))\n",
        "    expected = weyl_dim(lt, tuple(int(k == i - 1) for k in range(n)))\n",
        ("tests/test_fflv.py::test_fundamental_index_range",),
    ),
    # each option's value checked by its argparse type: an empty output path
    # admitted, --max-level 0 refused, --json declared without its type
    (
        CLI,
        "    if not out_path or os.path.isdir(out_path)",
        "    if os.path.isdir(out_path)",
        ("tests/test_cli.py::test_unwritable_output_refused_before_work",),
    ),
    (
        CLI,
        "        if value < least:\n",
        "        if value <= least:\n",
        ("tests/test_cli.py::test_table_size_admits_its_bound",),
    ),
    (
        CLI,
        'cmd.add_argument("--json", type=_check_out_path)',
        'cmd.add_argument("--json")',
        (
            "tests/test_cli.py::test_unwritable_output_refused_before_work",
            "tests/test_cli.py::test_branch_parser_matches_the_full_parser",
        ),
    ),
    # one integer grammar, --weight read by its type, the library refusing
    # what is not an int, and verify main's rows printed case by case
    (
        CLI,
        'cmd.add_argument("--weight", type=_coefficients, required=True)',
        'cmd.add_argument("--weight", required=True)',
        ("tests/test_cli.py::test_usage_error_exits_two[integer-help]",),
    ),
    (
        CLI,
        "        value = int(text) if _INTEGER.fullmatch(text) else least - 1\n",
        "        try:\n"
        "            value = int(text)\n"
        "        except ValueError:\n"
        "            value = least - 1\n",
        ("tests/test_cli.py::test_usage_error_exits_two[weight-underscore]",),
    ),
    (
        ROOTSYS,
        "any(type(a) is not int or a < 0 for a in w)",
        "any(a < 0 for a in w)",
        ("tests/test_rootsys.py::test_non_int_input_raises_value_error",),
    ),
    (
        ROOTSYS,
        "type(i) is not int or not 1 <= i <= rank",
        "not 1 <= i <= rank",
        ("tests/test_rootsys.py::test_non_int_input_raises_value_error",),
    ),
    (
        ROOTSYS,
        "if type(rank) is not int or type(i) is not int",
        "if type(i) is not int",
        ("tests/test_rootsys.py::test_non_int_input_raises_value_error",),
    ),
    (
        ROOTSYS,
        "if type(rank) is not int or rank < 1 or type(max_level) is not int:",
        "if type(max_level) is not int:",
        ("tests/test_rootsys.py::test_non_int_input_raises_value_error",),
    ),
    (
        ROOTSYS,
        "if type(self.rank) is not int or self.rank < 1:",
        "if self.rank < 1:",
        ("tests/test_rootsys.py::test_non_int_input_raises_value_error",),
    ),
    (
        CLI,
        "    reports = []\n"
        "    for w in dominant_weights(lt.rank, args.max_level):\n"
        "        start = time.perf_counter()\n"
        "        reports.append(rep := check_main(lt, w))\n",
        "    reports = [check_main(lt, w) for w in dominant_weights(lt.rank, args.max_level)]\n"
        "    for rep in reports:\n"
        "        start = time.perf_counter()\n",
        ("tests/test_cli.py::test_verify_main_prints_each_case_as_it_finishes",),
    ),
    # the pruned walk of the type-A oracle
    (
        WEDGE,
        "    order = restriction_block(lt, i)[::-1]\n",
        "    order = restriction_block(lt, i)\n",
        (
            "tests/test_wedge.py::test_oracle_matches_exhaustive_block_enumeration",
            "tests/test_wedge.py::test_oracle_equals_crystal_string_points",
        ),
    ),
    (
        WEDGE,
        "best[hist] = max(best.get(hist, bits), bits)",
        "best[hist] = min(best.get(hist, bits), bits)",
        (
            "tests/test_wedge.py::test_oracle_matches_exhaustive_block_enumeration",
            "tests/test_wedge.py::test_oracle_equals_crystal_string_points",
        ),
    ),
    (
        WEDGE,
        "        if taken:\n",
        "        if True:\n",
        (
            "tests/test_wedge.py::test_oracle_matches_exhaustive_block_enumeration",
            "tests/test_wedge.py::test_oracle_equals_crystal_string_points",
        ),
    ),
    # the packed image engine: one pass of the walk takes each match out of
    # the image set; a matched image left in it, the witness walk skipped when
    # the counts disagree, the missing strings named against the leftover
    # images, the image count on the override path, the leaf count as the
    # matched strings alone
    (
        VERIFY,
        "walk(lt, w, b, images.discard)",
        "walk(lt, w, b, images.__contains__)",
        (
            "tests/test_verify.py::test_check_main_small_cases",
            "tests/test_verify.py::test_report_json_digest_fixture",
        ),
    ),
    (
        VERIFY,
        "    if leaves > size - len(images):",
        "    if False:",
        (
            "tests/test_verify.py::test_report_lists_ten_witnesses_per_direction",
            "tests/test_verify.py::"
            "test_translation_plus_one_fails_with_witnesses_while_the_twist_fits",
        ),
    ),
    (
        VERIFY,
        "        missing -= packed_sum(lt, w, pack(trans, b), mat, b)\n",
        "        missing -= images\n",
        ("tests/test_verify.py::test_integer_kernel_matches_staged_reference",),
    ),
    (
        VERIFY,
        "fflv_count=size if trusted else len(points(lt, w)),",
        "fflv_count=size,",
        (
            "tests/test_verify.py::test_integer_kernel_matches_staged_reference",
            "tests/test_verify.py::test_override_that_merges_images_reports_them",
        ),
    ),
    (
        VERIFY,
        "string_count=leaves,",
        "string_count=size - len(images),",
        (
            "tests/test_verify.py::test_integer_kernel_matches_staged_reference",
            "tests/test_verify.py::test_override_that_merges_images_reports_them",
        ),
    ),
    (
        ROOTSYS,
        "    return 8 * (bound.bit_length() // 8 + 1)",
        "    return 2",
        (
            "tests/test_rootsys.py::test_pack_is_linear_injective_and_lex_monotone",
            "tests/test_verify.py::test_translation_past_one_byte_widens_the_digits",
        ),
    ),
    # the weight formula without its Cartan gate or with type C's last
    # coordinate doubled, and the stars and bars one slot long
    (
        ROOTSYS,
        "    if any(sum(map(mul, row, w)) != scale * a for row, a in zip(cartan, coeffs)):\n",
        "    if False:\n",
        ("tests/test_rootsys.py::test_singular_cartan_matrix_is_a_named_gate",),
    ),
    (
        ROOTSYS,
        "2 * min(i, k) if i < n else k)",
        "2 * min(i, k) if i < n else 2 * k)",
        ("tests/test_rootsys.py::test_base_weights_satisfy_the_cartan_property",),
    ),
    (
        ROOTSYS,
        "        end = level + rank - 1\n",
        "        end = level + rank\n",
        ("tests/test_rootsys.py::test_dominant_weights_enumeration",),
    ),
    # the label chain written in order, rows descending inside a column
    (
        ROOTSYS,
        "RootLabel(r, j) for j in range(n, 0, -1) for r in range(1, j + 1)",
        "RootLabel(r, j) for j in range(n, 0, -1) for r in range(j, 0, -1)",
        (
            "tests/test_rootsys.py::test_labels_are_the_sorted_chain",
            "tests/test_rootsys.py::test_labels_c2_printed_basis",
        ),
    ),
    # the one decoder: 4-byte digits read as 2-byte ones, and the from_bytes
    # path reading each digit one byte short
    (
        ROOTSYS,
        "'bhiq'[k.bit_length() - 1]",
        "'bhhq'[k.bit_length() - 1]",
        ("tests/test_rootsys.py::test_pack_is_linear_injective_and_lex_monotone",),
    ),
    (
        ROOTSYS,
        "mask, half, shifts = (1 << b) - 1,",
        "mask, half, shifts = (1 << b - 1) - 1,",
        ("tests/test_rootsys.py::test_pack_is_linear_injective_and_lex_monotone",),
    ),
    (
        VERIFY,
        "max(map(abs, trans)) + level * row_sum",
        "level * row_sum",
        ("tests/test_verify.py::test_translation_past_one_byte_widens_the_digits",),
    ),
    (
        VERIFY,
        "    if trusted and any(min(v) < 0 for v in extra):\n",
        "    if False:\n",
        (
            "tests/test_verify.py::"
            "test_translation_minus_one_on_a_zero_coordinate_trips_the_gate",
        ),
    ),
    # a case's fixed cost: the Fraction table keyed on the numerator alone,
    # the per-type row sum unkept or read under an override, the override's
    # rows unsummed, the dimension read off the image count or evaluated
    # again, and the witness decoding skipped while images or missing
    # strings remain
    (
        DEGENMAP,
        "@lru_cache(maxsize=None)\ndef _fraction(",
        "@lambda f: lambda x, y, memo={}: memo.setdefault(x, f(x, y))\ndef _fraction(",
        ("tests/test_verify.py::test_report_json_digest_fixture",),
    ),
    (
        DEGENMAP,
        "@lru_cache(maxsize=None)\ndef matrix_row_sum(",
        "def matrix_row_sum(",
        ("tests/test_source.py::test_twist_memos_are_package_caches_the_benchmark_clears",),
    ),
    (
        VERIFY,
        "row_sum = matrix_row_sum(lt) if trusted else row_sum_bound(mat)",
        "row_sum = matrix_row_sum(lt)",
        ("tests/test_verify.py::test_override_rows_past_one_byte_widen_the_digits",),
    ),
    (
        DEGENMAP,
        "    return max(sum(map(abs, row)) for row in mat)\n",
        "    return 0\n",
        ("tests/test_verify.py::test_override_rows_past_one_byte_widen_the_digits",),
    ),
    (
        VERIFY,
        "weyl_dim=leaves,",
        "weyl_dim=size if trusted else len(points(lt, w)),",
        ("tests/test_verify.py::test_a_lost_image_leaves_the_dimension_at_the_leaf_count",),
    ),
    (
        VERIFY,
        "weyl_dim=leaves,",
        "weyl_dim=__import__('fflvstring.rootsys').rootsys.weyl_dim(lt, w),",
        ("tests/test_verify.py::test_check_main_evaluates_one_weyl_product_per_case",),
    ),
    (
        VERIFY,
        "    if images:  # an image matched no string\n",
        "    if not images:\n",
        (
            "tests/test_verify.py::test_report_lists_ten_witnesses_per_direction",
            "tests/test_verify.py::test_translation_past_one_byte_widens_the_digits",
        ),
    ),
    (
        VERIFY,
        "[:WITNESS_CAP], n, b)) if missing else (),",
        "[:WITNESS_CAP], n, b)) if images else (),",
        ("tests/test_verify.py::test_a_lost_image_leaves_the_dimension_at_the_leaf_count",),
    ),
    # the linear part from one packed walk
    (
        DEGENMAP,
        "    if any(2 * abs(q + p) >= p for q, p in zip(rows, places)):\n",
        "    if False:\n",
        ("tests/test_degenmap.py::test_unitriangular_gate",),
    ),
    (
        DEGENMAP,
        "2 * abs(q + p) >= p",
        "abs(q + p) >= p",
        ("tests/test_degenmap.py::test_unitriangular_gate",),
    ),
    (
        DEGENMAP,
        "-q & ~keep or -q & -q >> 1 & ones",
        "-q & ~keep",
        ("tests/test_degenmap.py::test_entry_range_gate_names_the_true_entries",),
    ),
    (
        DEGENMAP,
        "b = pack_width(2 + 2 * size * top)",
        "b = pack_width((2 + 2 * size * top) >> 8)",
        ("tests/test_degenmap.py::test_entry_range_gate_names_the_true_entries",),
    ),
    # the packed slack register of the Dyck check, one bit short, and a
    # path's mask digit missing at its last label
    (
        FFLV,
        "    width = sum(w).bit_length() + 1",
        "    width = sum(w).bit_length()",
        ("tests/test_fflv.py::test_dyck_register_width_boundaries",),
    ),
    (
        FFLV,
        "        masks[pos[a, b]] |= ones\n",
        "        masks[pos[a, b]] |= ones if (a, b) != (j, j) else 0\n",
        (
            "tests/test_fflv.py::test_dyck_full_grid",
            "tests/test_fflv.py::test_dyck_check_matches_brute_force_box",
        ),
    ),
    # apply_T without its nonnegativity gate or walking the zero point, and
    # stringpoly points without its type-size refusal
    (
        DEGENMAP,
        "    check_nonnegative(lt, weight, p, image)\n",
        "",
        ("tests/test_degenmap.py::test_apply_T_nonnegativity_gate",),
    ),
    (
        DEGENMAP,
        "image = tuple(_walk(lt, nu, p))",
        "image = tuple(_walk(lt, nu, [0] * size))",
        (
            "tests/test_degenmap.py::test_apply_T_rank2_hand_cases",
            "tests/test_wedge.py::test_minimality_rejects_shifted_competitor",
        ),
    ),
    (
        CLI,
        '        _check_type_size(lt, "labels squared", args.max_dim)\n',
        "        pass\n",
        ("tests/test_cli.py::test_max_dim_refused_before_enumeration",),
    ),
    # the commutation table's shared first-factor images
    (
        WEDGE,
        "_step(first[j], steps[l], masks, width)",
        "_step(first[l], steps[l], masks, width)",
        (
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
            "tests/test_acceptance.py::test_criterion_06_proposition_sweeps",
        ),
    ),
    # the fold's label map without its reflection
    (
        DEGENMAP,
        "pos[(r, c) if r + c <= 2 * m else (2 * m - c, 2 * m - r)]",
        "pos[r, c]",
        (
            "tests/test_degenmap.py::test_fold_index_is_fold_label",
            "tests/test_degenmap.py::test_fold_vector_doubles_colliding_fiber",
        ),
    ),
    # point documents rendered from the packed ints: no hundreds place, the
    # empty cells of two-place rows kept, a number's leading place left
    # empty, 16-bit digits read as bytes
    (
        CLI,
        "for p in (10, 100))",
        "for p in (10,))",
        (
            "tests/test_cli.py::test_document_at_the_byte_width_boundary",
            "tests/test_cli.py::test_byte_digit_rows_are_json_dumps",
        ),
    ),
    (
        CLI,
        "        if width > 1:\n",
        "        if width > 2:\n",
        (
            "tests/test_cli.py::test_document_at_the_byte_width_boundary",
            "tests/test_cli.py::test_byte_digit_rows_are_json_dumps",
        ),
    ),
    (
        CLI,
        "v >= p or p == 1",
        "v > p or p == 1",
        (
            "tests/test_cli.py::test_document_at_the_byte_width_boundary",
            "tests/test_cli.py::test_byte_digit_rows_are_json_dumps",
        ),
    ),
    (
        CLI,
        "    if b == 8:\n",
        "    if b in (8, 16):\n",
        ("tests/test_cli.py::test_document_at_the_byte_width_boundary",),
    ),
    # check_main on per-type data: memos keyed without the width, a sum
    # that drops the last coefficient, a zero row without its scale entry,
    # a frontier never merged
    (
        FFLV,
        "@lru_cache(maxsize=None)\ndef fundamental_images(",
        "@lambda f: lambda lt, i, mat, b, memo={}: memo.setdefault((lt, i, mat), f(lt, i, mat, b))"
        "\ndef fundamental_images(",
        ("tests/test_acceptance.py::test_cached_fundamental_images_are_a_fresh_packing",),
    ),
    # a memo outside functools.lru_cache, which clear_caches cannot empty
    (
        FFLV,
        "@lru_cache(maxsize=None)\ndef fundamental_images(",
        "_IMAGES = {}\n\n\ndef _memo(f):\n    return lambda *args: _IMAGES.get(args) or"
        " _IMAGES.setdefault(args, f(*args))\n\n\n@_memo\ndef fundamental_images(",
        ("tests/test_source.py::test_check_main_keeps_no_memo_outside_lru_caches",),
    ),
    (
        CRYSTAL,
        "@lru_cache(maxsize=None)\ndef _steps(",
        "@lambda f: lambda family, m, word, columns, b, memo={}:"
        " memo.setdefault((family, m, word, columns), f(family, m, word, columns, b))"
        "\ndef _steps(",
        ("tests/test_crystal.py::test_walk_steps_are_kept_per_width",),
    ),
    (
        DEGENMAP,
        "    for a, v in zip(w, rows[1:]):\n",
        "    for a, v in zip(w[:-1], rows[1:]):\n",
        (
            "tests/test_acceptance.py::test_summed_translation_is_the_per_weight_walk",
            "tests/test_verify.py::test_report_json_digest_fixture",
        ),
    ),
    (
        DEGENMAP,
        "(0,) * (size + lt.target_rank) + (d,) + (0,) * n]",
        "(0,) * (size + lt.target_rank) + (0,) + (0,) * n]",
        (
            "tests/test_acceptance.py::test_zero_row_is_the_per_weight_pair_row",
            "tests/test_verify.py::test_report_json_digest_fixture",
        ),
    ),
    (
        FFLV,
        "        current |= fresh\n",
        "        current = fresh\n",
        (
            "tests/test_fflv.py::test_packed_sum_is_the_copy_by_copy_sum",
            "tests/test_cli.py::test_document_at_the_byte_width_boundary",
        ),
    ),
    # the documents' sorted runs: the largest sum of a copy dropped by the
    # dedup pass, a frontier phase's points left out of the sort after it,
    # and a frontier phase's set handed unsorted to the next coefficient
    (
        FFLV,
        "if x != y] + runs[-1:]",
        "if x != y]",
        ("tests/test_fflv.py::test_packed_sum_is_the_copy_by_copy_sum",),
    ),
    (
        FFLV,
        "pts = sorted(_frontier(set(grown), pts, step, a - k - 1))",
        "pts = sorted(grown)",
        (
            "tests/test_fflv.py::test_packed_sum_is_the_copy_by_copy_sum",
            "tests/test_fflv.py::test_every_copy_merges_into_a_sorted_sum",
        ),
    ),
    (
        FFLV,
        "pts = sorted(_frontier(set(grown), pts, step, a - k - 1))",
        "pts = list(_frontier(set(grown), pts, step, a - k - 1))",
        ("tests/test_fflv.py::test_every_copy_merges_into_a_sorted_sum",),
    ),
    # the fold sweep: the target walked at the source's lanes shifted by one,
    # and the source read as a prefix instead of folded by fold_vector
    (
        VERIFY,
        "build_translation(target, lanes[:n])",
        "build_translation(target, lanes[1 : n + 1])",
        (
            "tests/test_verify.py::test_packed_fold_verdicts_are_the_fold_vector_comparisons",
            "tests/test_cli.py::test_verify_sweep_golden",
        ),
    ),
    (
        VERIFY,
        "folded = fold_vector(build_translation(source, lanes), n)",
        "folded = list(build_translation(source, lanes))[: n * n]",
        (
            "tests/test_verify.py::test_packed_fold_verdicts_are_the_fold_vector_comparisons",
            "tests/test_cli.py::test_verify_sweep_golden",
        ),
    ),
    # the sweeps decided on packed ints: the unimodular entries read at bit 0
    # of each digit instead of bit 1, the fold's byte of omega_n unread, the
    # step masks spanning half the keys, and a rank's masks left cached
    (
        VERIFY,
        "-q & ones << 1",
        "-q & ones",
        (
            "tests/test_verify.py::test_unimodular_sweep_reads_the_entries_off_the_gates",
            "tests/test_cli.py::test_verify_sweep_golden",
        ),
    ),
    (
        VERIFY,
        "mask = (1 << 8 * n) - 1",
        "mask = (1 << 8 * (n - 1)) - 1",
        (
            "tests/test_verify.py::test_packed_fold_verdicts_are_the_fold_vector_comparisons",
            "tests/test_cli.py::test_verify_fold_failure_path",
        ),
    ),
    (
        WEDGE,
        "        while span < 1 << dim:\n",
        "        while span < 1 << dim - 1:\n",
        (
            "tests/test_wedge.py::test_packed_generators_decode_to_act_simple",
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
        ),
    ),
    # the core walk of the empty word, which has no step to read
    (
        CRYSTAL,
        "    if not steps:\n        take(0)\n        return 1\n",
        "",
        ("tests/test_crystal.py::test_core_walks_the_empty_word_to_its_highest_element",),
    ),
    # the commutation tables of a rank: the bases of every power, the masks
    # at the width of the products, digit v at key 2v, the equal products
    # read True on every power uncut, and unequal ones cut per power, each
    # by its own basis, keeping only the offsets left nonzero
    (
        WEDGE,
        "    bases = packed_powers(family, rank, rank, width)[1:]\n",
        "    bases = packed_powers(family, rank, 1, width)[1:]\n",
        (
            "tests/test_wedge.py::test_commutation_tables_build_the_masks_once_and_each_basis_once",
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
        ),
    ),
    (
        WEDGE,
        "ones[k - 1] << (width << b)",
        "ones[k - 1] << (width << b + 1)",
        (
            "tests/test_wedge.py::test_packed_generators_decode_to_act_simple",
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
        ),
    ),
    (
        WEDGE,
        "o_t = o + (1 << t - 1)",
        "o_t = o + (1 << t)",
        (
            "tests/test_wedge.py::test_packed_generators_decode_to_act_simple",
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
        ),
    ),
    (
        WEDGE,
        "equal or _proportional(",
        "equal and table is tables[0] or _proportional(",
        ("tests/test_wedge.py::test_commutation_tables_cut_only_differing_products_into_powers",),
    ),
    (
        WEDGE,
        "zip(tables, powers)",
        "zip(tables, powers[::-1])",
        ("tests/test_wedge.py::test_commutation_tables_read_each_power_on_its_own_digits",),
    ),
    (
        WEDGE,
        "table[l, j] = equal or _proportional(_masked(fx, power), _masked(fy, power), width)",
        "table[l, j] = equal",
        ("tests/test_wedge.py::test_commutation_tables_read_each_power_on_its_own_digits",),
    ),
    (
        WEDGE,
        "{o: cut for o, c in terms.items() if (cut := c & mask)}",
        "{o: c & mask for o, c in terms.items()}",
        ("tests/test_wedge.py::test_commutation_tables_read_each_power_on_its_own_digits",),
    ),
    (
        WEDGE,
        "    masks = step_masks(family, rank, width)\n",
        "    masks = step_masks(family, rank, 4)\n",
        (
            "tests/test_wedge.py::test_commutation_table_matches_sim_check_ops",
            "tests/test_wedge.py::test_commutation_tables_build_the_masks_once_and_each_basis_once",
        ),
    ),
    # the parse of argv: the tree's sweeps without --max-dim, the tree's
    # leaves without options, a leaf's result used with a word left over, a
    # leaf's usage line without its command, a leaf named by the first two
    # words that are no option, and the fold sweep with no size refusal
    (
        CLI,
        '    _add_max_dim(cmd, f"refuse a rank whose {unit} exceed this")\n',
        "    pass\n",
        (
            "tests/test_cli.py::test_table_size_refused_before_work",
            "tests/test_cli.py::test_branch_parser_matches_the_full_parser",
        ),
    ),
    (
        CLI,
        "        add_args(subs[command].add_parser(name, help=text))\n",
        "        subs[command].add_parser(name, help=text)\n",
        (
            "tests/test_cli.py::test_branch_parser_matches_the_full_parser",
            "tests/test_cli.py::test_argv_fuzz_exits_with_a_code",
        ),
    ),
    (
        CLI,
        "        if not rest:\n",
        "        if True:\n",
        (
            "tests/test_cli.py::test_branch_parser_matches_the_full_parser",
            "tests/test_cli.py::test_verify_main_has_no_thread_option",
            "tests/test_cli.py::test_a_valid_leaf_builds_one_parser",
        ),
    ),
    (
        CLI,
        'prog=f"fflvstring {command} {subcommand}"',
        'prog=f"fflvstring {subcommand}"',
        (
            "tests/test_cli.py::test_branch_parser_matches_the_full_parser",
            "tests/test_cli.py::test_a_valid_leaf_builds_one_parser",
        ),
    ),
    (
        CLI,
        "    if tuple(argv[:2]) in LEAVES:\n"
        "        args, rest = leaf_parser(*argv[:2]).parse_known_args(argv[2:])\n",
        "    words = [a for a in argv if not a.startswith(\"-\")][:2]\n"
        "    if tuple(words) in LEAVES:\n"
        "        args, rest = leaf_parser(*words).parse_known_args(\n"
        "            [a for a in argv if a not in words])\n",
        ("tests/test_cli.py::test_branch_parser_matches_the_full_parser",),
    ),
    (
        VERIFY,
        "        lambda n: root_count(LieType(\"A\", 2 * n - 1)) * (2 * n - 1),\n",
        "        lambda n: 0,\n",
        (
            "tests/test_cli.py::test_table_size_refused_before_work",
            "tests/test_cli.py::test_table_size_admits_its_bound",
        ),
    ),
    (
        CLI,
        "list(doc.items())[:-1]",
        "list(doc.items())[:-2]",
        (
            "tests/test_cli.py::test_caption_is_json_dumps",
            "tests/test_cli.py::test_document_round_trip",
        ),
    ),
    # a fact stated once: the points leaves with each other's handler, the
    # fold's section without the labels on row + col = 2m, and t(omega_i)
    # walked for the mirrored fundamental weight
    (
        CLI,
        'kind="fflv"' + _BETWEEN_POINTS_KINDS + 'kind="string"',
        'kind="string"' + _BETWEEN_POINTS_KINDS + 'kind="fflv"',
        (
            "tests/test_cli.py::test_document_round_trip",
            "tests/test_cli.py::test_document_digest_fixture",
        ),
    ),
    (
        DEGENMAP,
        "lab.row + lab.col <= 2 * m",
        "lab.row + lab.col < 2 * m",
        (
            "tests/test_degenmap.py::test_embed_is_the_section_of_the_fold",
            "tests/test_acceptance.py::test_criterion_06_proposition_sweeps",
        ),
    ),
    (
        DEGENMAP,
        "fundamental_weight(n, i) for i in range(1, n + 1)",
        "fundamental_weight(n, n + 1 - i) for i in range(1, n + 1)",
        (
            "tests/test_acceptance.py::test_summed_translation_is_the_per_weight_walk",
            "tests/test_verify.py::test_report_json_digest_fixture",
        ),
    ),
    # criterion 11: the oracle's Demazure operators applied first letter
    # first, or with no terms for <mu, alpha_j^vee> <= -2, and a twist read
    # off with a zero shift
    (
        ORACLES,
        "    for j in reversed(word):\n        out: dict",
        "    for j in word:\n        out: dict",
        (
            "tests/test_acceptance.py::test_criterion_11_demazure_characters",
            "tests/test_crystal.py::test_core_leaf_weights_are_the_demazure_character",
        ),
    ),
    (
        ORACLES,
        "(-1, range(n + 1, 0))",
        "(-1, ())",
        (
            "tests/test_acceptance.py::test_criterion_11_demazure_characters",
            "tests/test_crystal.py::test_core_leaf_weights_are_the_demazure_character",
        ),
    ),
    (
        DEGENMAP,
        "    shift = tuple(row[m] for row in sol)\n",
        "    shift = tuple(_ZERO for row in sol)\n",
        (
            "tests/test_acceptance.py::test_criterion_11_demazure_characters",
            "tests/test_degenmap.py::test_weight_twist_matches_full_system_oracle",
        ),
    ),
]


def _pytest(where: Path, *args: str) -> int:
    """The exit code of ``pytest -x`` on args in the copy at ``where``: 0 if
    it passes, 4 or 5 if args name no test."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    return subprocess.run(cmd, cwd=where, env=env, capture_output=True).returncode


def verdict(file: str, old: str, new: str, killers) -> str:
    """Apply one mutant to a fresh copy of the repository and test it."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".*cache", ".hypothesis", ".perfbench")
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp) / "repo"
        shutil.copytree(ROOT, where, ignore=ignore)
        path = where / file
        text = path.read_text()
        if text.count(old) != 1:
            return "STALE: the old text does not occur exactly once"
        path.write_text(text.replace(old, new))
        codes = [_pytest(where, k) for k in killers]
        stale = [k for k, code in zip(killers, codes) if code in (4, 5)]
        if stale:
            return f"STALE: these killers name no test: {stale}"
        passing = [k for k, code in zip(killers, codes) if code == 0]
        if not passing:
            return "killed"
        if len(passing) < len(killers):
            return f"killed, but these killers pass: {passing}"
        return "killed, but by none of its killers" if _pytest(where, "tests") else "SURVIVED"


def main(paths: list[str]) -> int:
    """Run the catalog, or only its entries for the files named in ``paths``."""
    files = {Path(os.path.relpath(Path(p).resolve(), ROOT)).as_posix() for p in paths}
    unknown = files - {mutant[0] for mutant in MUTANTS}
    if unknown:
        print(f"no cataloged mutant in: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    faults = run = 0
    for number, mutant in enumerate(MUTANTS, start=1):
        if files and mutant[0] not in files:
            continue
        result = verdict(*mutant)
        faults += result != "killed"
        run += 1
        print(f"{number:2d} {mutant[0]}: {result}", flush=True)
    print(f"{run} mutants, {faults} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
