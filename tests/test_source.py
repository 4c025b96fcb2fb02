"""Rules that hold for the package source as a whole."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

from hypothesis import settings

import fflvstring
from fflvstring import cli, crystal, degenmap, fflv, rootsys, verify, wedge
from conftest import A1, A2, A3, A4, C3, record_calls

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fflvstring"
PERFBENCH = SRC.parent.parent / "perfbench"


def test_no_assert_statements_in_package():
    # every invariant is a named VerificationError, which `python -O` keeps
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _trees(paths):
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def test_every_gate_is_named_by_a_test():
    # the gate name is the first argument of each VerificationError(...);
    # a gate that no test names could be dead or broken unseen
    calls = [
        node
        for tree in _trees(sorted(SRC.glob("*.py")))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "VerificationError"
    ]
    gates = {getattr(node.args[0], "value", None) for node in calls}
    assert calls and all(isinstance(gate, str) for gate in gates)
    tests = sorted(p for p in TESTS.glob("*.py") if p.name != "test_source.py")
    strings = [
        node.value
        for tree in _trees(tests)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert [gate for gate in sorted(gates) if not any(gate in s for s in strings)] == []


def _imports(path):
    """(line, module and names) of every import statement of a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[-1]]
            yield node.lineno, names + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            yield node.lineno, [alias.name.split(".")[-1] for alias in node.names]


def test_no_package_module_imports_exact():
    # every gate is integer-only; exact.det_int stays only for the benchmark
    # to bind, so deleting exact.py touches no other package module
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line, names in _imports(path)
        if "exact" in names
    ]
    assert found == []


def test_only_rootsys_imports_struct():
    # rootsys.unpack is the one decoder of packed digits, so a second one
    # that reads them through struct fails here
    found = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "rootsys.py"
        for line, names in _imports(path)
        if "struct" in names
    ]
    assert found == []


def test_verify_imports_nothing_from_fractions():
    # check_main fits the twist on integer weight pairs; only the read-off
    # of the twist or a witness, in degenmap, builds a Fraction
    path = SRC / "verify.py"
    assert [line for line, names in _imports(path) if "fractions" in names] == []


def test_degenmap_imports_no_label_formula_helpers():
    # one walk along the reduced word builds the matrix and every
    # translation; the per-family label formulas are test oracles now
    path = SRC / "degenmap.py"
    found = [
        line
        for line, names in _imports(path)
        if "column_key" in names
    ]
    assert found == []


def test_oracles_share_no_code_with_the_package():
    # an oracle that calls what it checks checks nothing: the only name
    # tests/oracles.py reads from the package is the label order that the
    # paper's label formulas are written in
    tree = ast.parse((TESTS / "oracles.py").read_text())
    found = [
        (getattr(node, "module", None), alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "fflvstring" in f"{getattr(node, 'module', '')} {alias.name}"
    ]
    assert found == [("fflvstring.rootsys", "build_labels")]


def test_a_cli_leaf_is_its_table_entry():
    # each sweep and its size bound live in verify, and each leaf is its
    # LEAVES entry: main runs the entry's handler and reads no command name
    tree = ast.parse((SRC / "cli.py").read_text())
    assert [line for line, names in _imports(SRC / "cli.py") if names[0] == "math"] == []
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)} | {
        t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets
    }
    assert not {"SWEEPS", "comm_table_rows"} & defined
    fixed = {("fflv", "points"), ("stringpoly", "points"), ("verify", "main")}
    assert set(cli.LEAVES) == fixed | {("verify", name) for name in verify.SWEEPS}
    assert all(callable(entry[2]) for entry in cli.LEAVES.values())
    main = next(n for n in tree.body if getattr(n, "name", None) == "main")
    compared = [
        node.lineno
        for node in ast.walk(main)
        if isinstance(node, ast.Compare)
        and any(getattr(x, "attr", None) == "command" for x in (node.left, *node.comparators))
    ]
    assert compared == []


def _called(tree):
    """The names of the functions a tree calls, bare or as an attribute."""
    return {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }


def test_the_fold_lives_in_degenmap():
    # the fold's positions (fold_index) and its fiber sum (fold_vector) are
    # stated once: the fold sweep folds the package's own walk with them
    paths = sorted(p for p in SRC.glob("*.py") if p.name != "degenmap.py")
    assert [p.name for p, tree in zip(paths, _trees(paths)) if "fold_index" in _called(tree)] == []
    tree = ast.parse((SRC / "verify.py").read_text())
    sweep = next(n for n in tree.body if getattr(n, "name", None) == "fold_sweep")
    assert {"fold_vector", "build_translation"} <= _called(sweep)


def test_cli_handlers_check_no_single_option():
    # an option's own value is checked once, by its argparse type as argv is
    # parsed; a handler keeps only the refusals that join options or bound
    # work: neither it nor a cli function it reaches calls a type, int or split
    tree = ast.parse((SRC / "cli.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    types = {ast.unparse(k.value).split("(")[0] for k in ast.walk(tree)
             if isinstance(k, ast.keyword) and k.arg == "type"}
    assert {"_parse_type", "_at_least", "_check_out_path"} <= types
    reads = {}
    for handler in [name for name in defs if name.startswith("_cmd_")]:
        reached = {handler}
        while not (more := {c for f in reached for c in _called(defs[f]) if c in defs}) <= reached:
            reached |= more
        reads[handler] = sorted(f for f in reached if _called(defs[f]) & (types | {"int", "split"}))
    assert reads == dict.fromkeys(("_cmd_points", "_cmd_verify_main", "_cmd_verify_sweep"), [])
    sides = [(n.left, *n.comparators) for h in reads for n in ast.walk(defs[h])
             if isinstance(n, ast.Compare)]
    literal = [s for s in sides if any(isinstance(x, ast.Constant) for x in s)]
    assert [ast.unparse(x) for s in literal for x in s if ast.unparse(x).startswith("args.")] == []


def test_point_sets_are_not_memoized():
    # P(lambda) and Q_w(lambda~) are per-case sets that no caller reads
    # twice; a memo would only keep every case's set alive to the end
    assert not hasattr(fflv.points, "cache_info")
    assert not hasattr(crystal.string_points, "cache_info")


def test_tables_read_once_per_pass_are_not_memoized():
    # a memo stays only where a pass reads an entry twice: each caller reads
    # these once per type, rank or power, so a memo would only keep them alive
    once = (degenmap.packed_matrix, degenmap.build_translation, degenmap.fold_index,
            fflv._dyck_digits, rootsys.weight_numerators, wedge.restriction_block,
            wedge.packed_powers, wedge.step_masks)
    assert [fn.__name__ for fn in once if hasattr(fn, "cache_info")] == []
    # every table check_main reads lives, memo or not, in the module that builds it
    assert "lru_cache" not in (SRC / "verify.py").read_text()
    imported = {name for _, names in _imports(SRC / "verify.py") if names[0] == "wedge"
                for name in names[1:]}
    assert imported and not any(hasattr(getattr(wedge, name), "cache_info") for name in imported)


def test_no_package_module_empties_a_memo():
    # no module manages a memo, its own or another module's: what a pass
    # reads once is built per call and freed with it
    paths = sorted(SRC.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for tree, path in zip(_trees(paths), paths)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "cache_clear"
    ]
    assert found == []


def test_crystal_walk_reads_packed_columns_through_the_key_table(monkeypatch, fresh_walk_steps):
    # each leaf is handed over as one packed int, and each operator reads a
    # per-type table keyed by its classed letters: the letter scan runs once
    # per new table entry, never once per element
    strings = []
    assert crystal.walk(A3, (1, 1, 0), 8, strings.append) == len(strings) > 0
    assert all(type(s) is int for s in strings)
    # A4's tables start empty, so every entry is scanned while counted
    calls = record_calls(monkeypatch, crystal, "_key_signature")
    lt = A4
    walked = sum(crystal.walk(lt, w, 8, lambda s: None) for w in rootsys.dominant_weights(4, 2))
    entries = sum(len(table) for _, table in crystal._signature_tables("A", lt.target_rank))
    assert 0 < len(calls) == entries < walked


def test_only_the_walk_core_reads_the_step_table():
    # one loop over the step table: no other crystal function unpacks
    # _steps rows, and a key is scanned only where its table entry is filled
    tree = ast.parse((SRC / "crystal.py").read_text())
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert [n.name for n in defs if "_steps" in _called(n)] == ["walk_word"]
    calls = [n for n in ast.walk(tree) if getattr(getattr(n, "func", None), "id", None)
             == "_key_signature"]
    fills = [n.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
             and any(isinstance(target, ast.Subscript) for target in n.targets)]
    assert calls and all(any(call is value for value in fills) for call in calls)


def test_only_the_frontier_helper_holds_the_frontier_loop():
    # S_(k+1) = S_k | ((S_k - S_(k-1)) + step) is stated once: no other fflv
    # function takes a set difference or grows a set in place, and both
    # builders, the set and the sorted runs, call the one that does
    tree = ast.parse((SRC / "fflv.py").read_text())
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    grows = [n.name for n in defs if "difference" in _called(n) or any(
        isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitOr)
        and isinstance(node.target, ast.Name) for node in ast.walk(n))]
    assert grows == ["_frontier"]
    assert [n.name for n in defs if "_frontier" in _called(n)] == ["packed_sum", "packed_points"]


def test_build_matrix_walks_once_per_type(monkeypatch):
    # one walk over packed places returns every row of -R^{-1}, so the
    # number of walks does not grow with the number of columns
    calls = record_calls(monkeypatch, degenmap, "_walk")
    types = [A4, C3]
    for lt in types:
        degenmap.packed_matrix(lt)
    assert [args[0] for args in calls] == types


def _perfbench_tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def test_benchmark_binds_existing_names():
    # the benchmark rebinds and calls package functions by name, read here
    # without importing it, so a removed or renamed one fails in this suite
    tracer, workloads = _perfbench_tree("tracer.py"), _perfbench_tree("workloads.py")
    assigns = {n.targets[0].id: n.value for n in tracer.body if isinstance(n, ast.Assign)}
    used = {(home, func) for home, func, _, _ in ast.literal_eval(assigns["TRACED"]).values()}
    modules = set()
    for node in workloads.body:
        if isinstance(node, ast.ImportFrom) and node.module == "fflvstring":
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("fflvstring."):
            used |= {(node.module.split(".")[1], alias.name) for alias in node.names}
    used |= {
        (node.value.id, node.attr)
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules
    }
    assert modules and used
    missing = [f"{home}.{func}" for home, func in sorted(used)
               if not hasattr(importlib.import_module(f"fflvstring.{home}"), func)]
    assert missing == []
    assert "threads" in inspect.signature(verify.run_grid).parameters


def _grid_method(name):
    workloads = _perfbench_tree("workloads.py")
    grid = next(n for n in workloads.body if getattr(n, "name", None) == "Grid")
    return next(n for n in grid.body if getattr(n, "name", None) == name)


def test_benchmark_reads_existing_report_attributes():
    # the benchmark's output check reads these off each report; a renamed
    # one would show only as failed cases of the grid workload
    read = {
        node.attr
        for node in ast.walk(_grid_method("check"))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "rep"
    }
    assert {"status", "equal", "weight_twist", "to_dict"} <= read
    rep = verify.check_main(A1, (1,))
    assert [name for name in sorted(read) if not hasattr(rep, name)] == []


# parameters of the functions the benchmark's staged replay (Grid.replay)
# calls positionally; a reordered or renamed parameter would silently feed
# it wrong arguments
REPLAY_PARAMETERS = {
    (degenmap, "apply_affine"): ("matrix", "translation", "p"),
    (degenmap, "build_translation"): ("lt", "weight"),
    (degenmap, "weight_twist_solve"): ("lt", "weight", "pairs"),
    (rootsys, "fflv_weight"): ("lt", "weight", "p"),
    (rootsys, "string_weight"): ("lt", "weight", "q"),
}


def test_benchmark_replay_parameters_pinned():
    replay = _grid_method("replay")
    calls = {
        (node.func.value.id, node.func.attr): len(node.args)
        for node in ast.walk(replay)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
    }
    for (module, name), params in REPLAY_PARAMETERS.items():
        home = module.__name__.rsplit(".", 1)[1]
        assert calls[home, name] == len(params), name
        assert tuple(inspect.signature(getattr(module, name)).parameters) == params


def test_twist_memos_are_package_caches_the_benchmark_clears():
    # perfbench's clear_caches empties every functools.lru_cache that a
    # package module defines, found by scanning the module's names
    memos = (degenmap.label_rows, degenmap.support_basis, degenmap.matrix_row_sum,
             degenmap._fraction)
    found = {
        value
        for module in (importlib.import_module(f"fflvstring.{info.name}")
                       for info in pkgutil.iter_modules(fflvstring.__path__))
        for value in vars(module).values()
        if hasattr(value, "cache_clear") and hasattr(value, "cache_info")
        and getattr(value, "__module__", None) == module.__name__
    }
    assert set(memos) <= found
    assert all(type(memo) is type(rootsys.build_labels) for memo in memos)
    assert verify.check_main(A2, (1, 1)).status == "ok"
    assert all(memo.cache_info().currsize for memo in memos)
    for memo in memos:
        memo.cache_clear()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_check_main_keeps_no_memo_outside_lru_caches():
    # perfbench's clear_caches empties every functools.lru_cache before a
    # timed pass; a module-level dict, list or set that check_main grows
    # would outlive it and let the timed passes run warm
    modules = [importlib.import_module(f"fflvstring.{info.name}")
               for info in pkgutil.iter_modules(fflvstring.__path__)]

    def sizes():
        return {
            (module.__name__, name): len(value)
            for module in modules
            for name, value in vars(module).items()
            if isinstance(value, (dict, list, set))
        }

    before = sizes()
    lt = A3
    mat = [list(row) for row in degenmap.build_matrix(lt)]
    mat[1][4] += 7  # a matrix no other test uses
    for w in ((2, 1, 2), (0, 1, 3)):
        assert verify.check_main(lt, w).status == "ok"
        assert verify.check_main(lt, w, matrix=mat).status == "failed"
    assert verify.check_main(C3, (1, 1, 1)).status == "ok"
    assert before and sizes() == before


def test_every_cataloged_mutant_applies_exactly_once():
    # tests/mutants.py runs each (file, old, new, killers) mutant outside
    # tier-1; an old text edited away would silently stop testing anything
    from mutants import MUTANTS

    root = SRC.parent.parent
    counts = [(root / file).read_text().count(old) for file, old, _, _ in MUTANTS]
    assert counts == [1] * len(MUTANTS)
    for _, old, new, killers in MUTANTS:
        assert old != new and killers
    # a killer that names no test would read as a kill: each names a test
    # function of its file, without the [...] of a parametrized case
    killers = [k.split("::") for *_, ks in MUTANTS for k in ks]
    texts = {path: (root / path).read_text() for path, _ in killers}
    assert [k for k in killers if f"\ndef {k[1].split('[')[0]}(" not in texts[k[0]]] == []


def test_property_tests_draw_from_the_derandomized_profile():
    # the seed rule is stated once, in the profile that conftest.py loads:
    # every property test draws the same examples on every run, and a test's
    # own @settings sets its example count and nothing else
    assert settings.default.derandomize and settings.default.deadline is None
    fields = {
        keyword.arg
        for tree in _trees(sorted(TESTS.glob("test_*.py")))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "settings"
        for keyword in node.keywords
    }
    assert fields == {"max_examples"}
