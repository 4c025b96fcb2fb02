"""Spans around the calls into each module of fflvstring, from outside it.

The tracer rebinds public functions in the package's module namespaces to
timing wrappers, so calls made inside the library (``check_main`` calling
``weight_twist_solve``, ``string_points`` calling ``demazure_set``) are
timed without any change to library code.  ``uninstall`` restores every
binding.

Three kinds of wrapper keep the cost per call small:

* ``span``: one record per call (name, start, end, parent, case), for
  calls made a few times per case;
* ``agg``: per-point functions called thousands of times per case; calls
  are summed per (parent span, case) into one record with a call count;
* ``count``: a call counter only.

Spans and aggregates are kept in memory and written out after the run.

What each per-layer figure should move (end-to-end metric, on which
workloads; a workload that does not run a layer reads 0 for it):

* degenmap.twist_*: wall_s and case_tail_ms on grid;
* rootsys.weight_pairs_s, degenmap.affine_s, verify.residual_s: wall_s on grid;
* crystal.*: wall_s and throughput_per_s on points, and on grid;
* fflv.points_s, fflv.minkowski_*: wall_s and peak_rss_mb on points;
* fflv.dyck_s, degenmap.matrix_s, exact.det_*, wedge.*: wall_s on sweeps;
* verify.pool_speedup: grid wall_s, through the thread-pool decision;
* cli.render_s, cli.bytes_out: case_p50_ms on points.

The figures in ``COMPUTED`` are derived from the outputs after the pass,
outside the timed region; the other counts are calls seen at the wrappers.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

import workloads

# metric name: (defining module, function, wrapper kind, namespaces to rebind
# or None for every module that binds the function)
TRACED = {
    "verify.check_main": ("verify", "check_main", "span", None),
    "cli.main": ("cli", "main", "span", None),
    "fflv.points": ("fflv", "points", "span", None),
    "fflv.dyck": ("fflv", "dyck_check_A", "span", None),
    "crystal.string_points": ("crystal", "string_points", "span", None),
    "crystal.demazure": ("crystal", "demazure_set", "span", None),
    "crystal.extract": ("crystal", "extract_string", "agg", None),
    "rootsys.fflv_weight": ("rootsys", "fflv_weight", "agg", None),
    "rootsys.string_weight": ("rootsys", "string_weight", "agg", None),
    "degenmap.matrix": ("degenmap", "build_matrix", "span", None),
    "degenmap.translation": ("degenmap", "build_translation", "agg", None),
    "degenmap.apply_affine": ("degenmap", "apply_affine", "agg", None),
    "degenmap.twist": ("degenmap", "weight_twist_solve", "span", None),
    "exact.det": ("exact", "det_int", "span", None),
    # act_sequence is also called inside wedge; only the CLI's direct calls
    # are traced, the others belong to the enclosing wedge span.
    "wedge.act_sequence": ("wedge", "act_sequence", "agg", ("cli",)),
    "wedge.sim_check_ops": ("wedge", "sim_check_ops", "agg", None),
    "wedge.oracle": ("wedge", "oracle_string_points_A", "span", None),
    "wedge.minimality": ("wedge", "minimality_check_A", "span", None),
    "wedge.act_monomial": ("wedge", "act_monomial", "count", None),
}

# Calls whose arguments or results the per-layer counts are computed from.
KEEP = {"crystal.demazure", "crystal.string_points", "fflv.points", "degenmap.twist"}
COMPUTED = {
    "degenmap.twist_pairs",
    "degenmap.twist_distinct_pairs",
    "degenmap.twist_pair_yield",
    "crystal.elements",
    "crystal.raise_steps",
    "fflv.minkowski_pairs",
    "fflv.minkowski_yield",
    "cli.bytes_out",
}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, case, parent name]
        self.spans: list[list] = []
        # (parent index, parent name, name, case) -> [calls, seconds]
        self.aggs: dict[tuple, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.kept: dict[str, list] = defaultdict(list)
        self.stack: list[tuple[int, str | None]] = [(-1, None)]
        self.case: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn, kind: str):
        spans, aggs, stack, counts, kept = (
            self.spans, self.aggs, self.stack, self.counts, self.kept
        )
        keep = name in KEEP

        if kind == "span":
            def wrapper(*args, **kwargs):
                parent, parent_name = stack[-1]
                rec = [name, 0.0, 0.0, parent, self.case, parent_name]
                stack.append((len(spans), name))
                spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                if keep:
                    kept[name].append((args, result))
                return result
        elif kind == "agg":
            def wrapper(*args, **kwargs):
                parent, parent_name = stack[-1]
                stack.append((parent, name))
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    stack.pop()
                    key = (parent, parent_name, name, self.case)
                    rec = aggs.get(key)
                    if rec is None:
                        aggs[key] = [1, elapsed]
                    else:
                        rec[0] += 1
                        rec[1] += elapsed
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in workloads.MODULES}
        namespaces = list(mods.values()) + [workloads.fflvstring]
        for name, (home, func, kind, only) in TRACED.items():
            original = getattr(mods[home], func)
            wrapper = self._wrapper(name, original, kind)
            targets = namespaces if only is None else [mods[m] for m in only]
            for ns in targets:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    # -- per-layer figures -------------------------------------------------

    def total(self, *names: str) -> float:
        """Summed time of every call of the named functions."""
        spans = sum(r[2] - r[1] for r in self.spans if r[0] in names)
        aggs = sum(v[1] for k, v in self.aggs.items() if k[2] in names)
        return spans + aggs

    def calls(self, name: str) -> int:
        spans = sum(1 for r in self.spans if r[0] == name)
        return spans + sum(v[0] for k, v in self.aggs.items() if k[2] == name)

    def children(self, name: str) -> dict[str, float]:
        """Time of the direct children of every span called ``name``, by child."""
        own = {i for i, r in enumerate(self.spans) if r[0] == name}
        out: dict[str, float] = defaultdict(float)
        for r in self.spans:
            if r[3] in own and r[5] == name:
                out[r[0]] += r[2] - r[1]
        for (parent, parent_name, child, _), v in self.aggs.items():
            if parent in own and parent_name == name:
                out[child] += v[1]
        return dict(out)

    def self_time(self, name: str) -> float:
        """Time inside spans called ``name`` not covered by traced calls."""
        return self.total(name) - sum(self.children(name).values())

    def records(self, run_start: float, pass_index: int) -> dict:
        """Spans and aggregates with times relative to the run's start."""
        return {
            "pass": pass_index,
            "spans": [
                {"name": n, "start": s - run_start, "end": e - run_start,
                 "parent": p, "case": c}
                for n, s, e, p, c, _ in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "parent_name": pn, "case": c,
                 "calls": v[0], "seconds": v[1]}
                for (p, pn, n, c), v in self.aggs.items()
            ],
            "counts": dict(self.counts),
        }


def minkowski_pairs(lt, w) -> int:
    """Sums ``fflv.points`` forms for weight w, computed from Weyl dimensions.

    Each step adds one fundamental set to the running sum, which before the
    step equals P of the partial weight, so the step forms
    |P(partial)| * |P(omega_i)| sums.
    """
    rank = lt.rank
    partial = [0] * rank
    pairs = 0
    for i, a in enumerate(w):
        fund = tuple(1 if k == i else 0 for k in range(rank))
        for _ in range(a):
            pairs += workloads.weyl_dim(lt, partial) * workloads.weyl_dim(lt, fund)
            partial[i] += 1
    return pairs


def layer_metrics(t: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    pairs = distinct = 0
    for args, _ in t.kept["degenmap.twist"]:
        pts = args[2]
        pairs += len(pts)
        distinct += len(dict.fromkeys((tuple(s), tuple(q)) for s, q in pts))
    elements = sum(len(res) for _, res in t.kept["crystal.demazure"])
    raise_steps = sum(sum(q) for _, res in t.kept["crystal.string_points"] for q in res)
    emitted = sum(len(res) for _, res in t.kept["fflv.points"])
    sums = sum(minkowski_pairs(args[0], args[1]) for args, _ in t.kept["fflv.points"])
    extract_s = t.total("crystal.extract")
    extract_calls = t.calls("crystal.extract")
    return {
        "degenmap.twist_s": t.total("degenmap.twist"),
        "degenmap.twist_pairs": pairs,
        "degenmap.twist_distinct_pairs": distinct,
        "degenmap.twist_pair_yield": distinct / pairs if pairs else 0.0,
        "rootsys.weight_pairs_s": t.total(
            "rootsys.fflv_weight", "rootsys.string_weight"
        ),
        "crystal.demazure_s": t.total("crystal.demazure"),
        "crystal.extract_s": extract_s,
        "crystal.elements": elements,
        "crystal.extract_us_per_point": (
            1e6 * extract_s / extract_calls if extract_calls else 0.0
        ),
        "crystal.raise_steps": raise_steps,
        "fflv.points_s": t.total("fflv.points"),
        "fflv.minkowski_pairs": sums,
        "fflv.minkowski_yield": emitted / sums if sums else 0.0,
        "fflv.dyck_s": t.total("fflv.dyck"),
        "degenmap.matrix_s": t.total("degenmap.matrix"),
        "exact.det_s": t.total("exact.det"),
        "exact.det_calls": t.calls("exact.det"),
        "degenmap.affine_s": t.total("degenmap.translation", "degenmap.apply_affine"),
        "wedge.sim_s": t.total("wedge.act_sequence", "wedge.sim_check_ops"),
        "wedge.oracle_s": t.total("wedge.oracle", "wedge.minimality"),
        "wedge.monomials": t.counts["wedge.act_monomial"],
        "verify.residual_s": t.self_time("verify.check_main"),
        "cli.render_s": t.self_time("cli.main"),
        "cli.bytes_out": bytes_out,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of every figure over the traced passes."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
