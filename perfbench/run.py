"""The fflvstring benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {grid,points,sweeps} --seed N \\
        --seconds S --trace {0,1}

Workloads are closed loops: one process, one thread, each operation issued
after the previous one returned (see ``workloads.py``).  A pass runs every
operation once from empty package caches.  ``--seconds`` sets how much work
a run measures: the number of passes is S divided by the workload's
``pass_budget_s``, at least 3.  The pass count does not depend on the
measured speed, so the tail percentile and its sample count stay the same
between commits; only a run slower than 2.4 S stops early, after at least 3
passes.  One untimed pass over the workload's tiny inputs comes first, so
that lazy imports and the interpreter's warm-up are not timed.

Host speed.  On a shared host the same code runs up to about 1.6 times
slower for stretches of seconds to minutes.  Each timed operation is
therefore bracketed by calibrations of the host's speed, and every timing
metric is in seconds at the reference host speed (see ``hostspeed.py``).
The raw times and the host's slowdown are kept in the result file.

``--trace 0`` prints the end-to-end metrics (times scaled as above):

* ``wall_s``: the median pass time;
* ``throughput_per_s``: the workload's work units per pass over ``wall_s``;
* ``case_p50_ms``: the latency of the median operation: each operation's
  median over the passes, then the median of those.  (The median of the
  pooled samples would fall between two operations of different size and
  swing between the slowest sample of one and the fastest of the other.)
* ``case_tail_ms``: over the latencies of every operation of every pass,
  the highest whole percentile with at least ten samples beyond it (printed
  with the percentile and count);
* ``setup_s``: median of 15 fresh interpreters importing fflvstring and
  building the inputs, each scaled by calibrations the probe process runs
  right after;
* ``peak_rss_mb``: peak resident memory of the run's own process.

``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics of the traced ones (see ``tracer.py``) and writes the spans to
``.perfbench/``.

Every pass checks its outputs; an operation whose output is wrong counts as
failed, never as a timed success.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with the machine, the inputs and the details is
written to ``.perfbench/`` as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

try:
    import tracer
    import workloads
    from hostspeed import CALIB_REF_S, calibrate, scaled
except ImportError as exc:
    print(f"cannot load fflvstring from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 15
MIN_PASSES = 3
CAP_FACTOR = 2.4  # a run stops after CAP_FACTOR * --seconds of passes
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "degenmap.twist_s": "s",
    "degenmap.twist_pairs": "count",
    "degenmap.twist_distinct_pairs": "count",
    "degenmap.twist_pair_yield": "ratio",
    "rootsys.weight_pairs_s": "s",
    "crystal.demazure_s": "s",
    "crystal.extract_s": "s",
    "crystal.elements": "count",
    "crystal.extract_us_per_point": "us",
    "crystal.raise_steps": "count",
    "fflv.points_s": "s",
    "fflv.minkowski_pairs": "count",
    "fflv.minkowski_yield": "ratio",
    "fflv.dyck_s": "s",
    "degenmap.matrix_s": "s",
    "exact.det_s": "s",
    "exact.det_calls": "count",
    "degenmap.affine_s": "s",
    "wedge.sim_s": "s",
    "wedge.oracle_s": "s",
    "wedge.monomials": "count",
    "verify.residual_s": "s",
    "verify.pool_speedup": "ratio",
    "cli.render_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    ops: list
    outputs: list | None  # kept only when asked for, so they do not add to peak RSS
    latencies: list[float]  # per operation, scaled to the reference host speed
    raw_latencies: list[float]
    calibrations: list[float]  # one before the first operation and one after each
    ok: list[bool]
    bytes_out: int

    @property
    def wall(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_latencies)

    def slowdown(self) -> float:
        """Median calibration time over the reference: 1.0 at full host speed."""
        return statistics.median(self.calibrations) / CALIB_REF_S

    def units(self) -> int:
        return sum(op.units for op, good in zip(self.ops, self.ok) if good)


def run_pass(wl, tr=None, keep_outputs=False) -> Pass:
    """One closed-loop pass over the workload from empty caches, then checks.

    A workload with ``caches_per_op`` empties the caches before every
    operation too, so that no operation's time depends on which ran before.
    """
    ops = wl.ops()
    gc.collect()
    workloads.clear_caches()
    outputs, raw = [], []
    calibrations = [calibrate()]
    if tr is not None:
        tr.install()
    try:
        for op in ops:
            if tr is not None:
                tr.case = op.case
            if wl.caches_per_op:
                workloads.clear_caches()
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation; the run goes on
                traceback.print_exc(file=sys.stderr)
                out = exc
            raw.append(perf_counter() - t0)
            outputs.append(out)
            calibrations.append(calibrate())
    finally:
        if tr is not None:
            tr.uninstall()
    latencies = [
        scaled(t, calibrations[k], calibrations[k + 1]) for k, t in enumerate(raw)
    ]
    ok = wl.check(ops, outputs)
    bytes_out = sum(
        len(out[1].encode("utf-8"))
        for out in outputs
        if isinstance(out, tuple) and isinstance(out[1], str)
    )
    return Pass(
        ops, outputs if keep_outputs else None, latencies, raw, calibrations, ok,
        bytes_out,
    )


def run_passes(wl, passes: int, cap_s: float) -> list[Pass]:
    """Up to ``passes`` passes, fewer if they take longer than ``cap_s``."""
    warm_up(wl)
    start = perf_counter()
    runs = []
    for _ in range(passes):
        runs.append(run_pass(wl))
        if len(runs) >= MIN_PASSES and perf_counter() - start > cap_s:
            break
    return runs


def warm_up(wl) -> None:
    """One pass over the tiny inputs of the same workload, neither timed nor
    counted: the measured passes check their own outputs."""
    run_pass(workloads.make(wl.name, wl.seed, tiny=True))


def setup_times(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ``import fflvstring`` done and inputs built.

    Returns the times scaled to the reference host speed, and the raw ones.
    """
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), name, str(seed)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0 or len(rest) != 2:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        raw.append(elapsed)
        times.append(scaled(elapsed, float(rest[0]), float(rest[1])))
    return times, raw


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct
    return xs[-1], 100


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def end_to_end(wl, passes, cap_s) -> tuple[dict, dict, list[Pass]]:
    setup, setup_raw = setup_times(wl.name, wl.seed)
    runs = run_passes(wl, passes, cap_s)
    latencies = [x for p in runs for x in p.latencies]
    wall = statistics.median(p.wall for p in runs)
    tail_s, pct = tail(latencies)
    metrics = {
        "wall_s": wall,
        "throughput_per_s": min(p.units() for p in runs) / wall,
        "case_p50_ms": 1e3 * statistics.median(
            statistics.median(p.latencies[k] for p in runs)
            for k in range(len(runs[0].ops))
        ),
        "case_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "pass_walls_s": [p.wall for p in runs],
        "raw_pass_walls_s": [p.raw_wall for p in runs],
        "host_slowdown": [p.slowdown() for p in runs],
        "latencies_s": {
            op.case: [p.latencies[k] for p in runs] for k, op in enumerate(runs[0].ops)
        },
        "setup_probes_s": setup,
        "raw_setup_probes_s": setup_raw,
        "tail_percentile": pct,
        "latency_samples": len(latencies),
        "throughput_unit": f"{wl.unit} per second",
        "units_per_pass": [p.units() for p in runs],
    }
    return metrics, details, runs


def grid_extras(wl, traced: list) -> tuple[float, dict]:
    """Staged replay of the traced passes, and threads=2 against threads=1."""
    for p in traced:
        for k, (op, rep) in enumerate(zip(p.ops, p.outputs)):
            lt, w = wl.canonical[wl.order[k]]
            if p.ok[k] and not wl.replay(lt, w, rep):
                p.ok[k] = False
    times, texts = {}, {}
    for threads in (1, 2):
        gc.collect()
        workloads.clear_caches()
        start = perf_counter()
        reports = workloads.verify.run_grid(wl.cases, threads=threads)
        times[threads] = perf_counter() - start
        texts[threads] = workloads.verify.reports_to_json(reports)
    if texts[1] != texts[2]:
        raise RuntimeError("run_grid output depends on the thread count")
    return times[1] / times[2], {"threads1_s": times[1], "threads2_s": times[2]}


def grid_split(tr, total: float) -> dict:
    """Shares of ``check_main`` time, and the stages that account for it."""
    stages = tr.children("verify.check_main")
    shares = {
        "twist": tr.total("degenmap.twist"),
        "extraction": tr.total("crystal.extract"),
        "weight pairs": tr.total("rootsys.fflv_weight", "rootsys.string_weight"),
        "saturation": tr.total("crystal.demazure"),
        "affine map": tr.total("degenmap.translation", "degenmap.apply_affine"),
        "fflv points": tr.total("fflv.points"),
    }
    residual = tr.self_time("verify.check_main")
    return {
        "check_main_s": total,
        "shares": {k: {"seconds": v, "share": v / total} for k, v in shares.items()},
        "stages_s": stages,
        "residual_s": residual,
        "stages_plus_residual_s": sum(stages.values()) + residual,
    }


def per_layer(wl, passes, run_start) -> tuple[dict, dict, list[Pass]]:
    rounds = max(1, passes // 2)
    warm_up(wl)
    untraced, traced, figures, records = [], [], [], []
    last = None
    for k in range(rounds):
        untraced.append(run_pass(wl))
        tr = tracer.Tracer()
        traced.append(run_pass(wl, tr, keep_outputs=wl.name == "grid"))
        figures.append(tracer.layer_metrics(tr, traced[-1].bytes_out))
        records.append(tr.records(run_start, k))
        last = tr
    metrics = tracer.median_metrics(figures)
    details = {}
    speedup = 0.0
    if wl.name == "grid":
        speedup, details["pool"] = grid_extras(wl, traced)
        details["grid_split"] = grid_split(last, last.total("verify.check_main"))
    metrics["verify.pool_speedup"] = speedup
    wall_u = statistics.median(p.wall for p in untraced)
    wall_t = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_s"] = wall_t - wall_u
    details["overhead"] = {"untraced_wall_s": wall_u, "traced_wall_s": wall_t}
    spans = write_json(f"spans-{wl.name}-seed{wl.seed}.json", records)
    details["spans_file"] = str(spans.relative_to(ROOT))
    return metrics, details, untraced + traced


def write_json(filename: str, data) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / filename
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return path


def run(name: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    run_start = perf_counter()
    wl = workloads.make(name, seed, tiny)
    passes = max(MIN_PASSES, round(seconds / wl.pass_budget_s))
    if trace:
        values, details, runs = per_layer(wl, passes, run_start)
        units = PER_LAYER
    else:
        values, details, runs = end_to_end(wl, passes, CAP_FACTOR * seconds)
        units = END_TO_END
    attempted = sum(len(p.ok) for p in runs)
    failed = sum(not good for p in runs for good in p.ok)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": passes,
        "loop": "closed, one client, one thread",
        "machine": machine(),
        "host_slowdown": statistics.median(p.slowdown() for p in runs),
        "inputs": wl.inputs(),
        "failed_frac": failed / attempted,
        "details": details,
        "result": result,
    }
    path = write_json(f"result-{name}-seed{seed}-trace{int(trace)}.json", record)
    record["file"] = str(path.relative_to(ROOT))
    return record


def print_report(record: dict) -> None:
    """Human-readable lines; the JSON result comes last."""
    res = record["result"]
    m = record["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']}; "
          f"host ran {record['host_slowdown']:.3f}x the reference calibration time")
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['passes']} passes, {record['loop']}")
    print(f"inputs: {json.dumps(record['inputs'])}")
    det = record["details"]
    for k, v in res["metrics"].items():
        note = ""
        if k == "case_tail_ms":
            note = (f"  (p{det['tail_percentile']} of {det['latency_samples']} "
                    f"samples, at least {TAIL_BEYOND} beyond)")
        elif k == "throughput_per_s":
            note = f"  ({det['throughput_unit']}, {det['units_per_pass'][0]} per pass)"
        elif k == "verify.pool_speedup" and "pool" in det:
            pool = det["pool"]
            note = (f"  (threads=1 {pool['threads1_s']:.3f} s / "
                    f"threads=2 {pool['threads2_s']:.3f} s)")
        elif k in tracer.COMPUTED:
            note = "  (computed from the outputs)"
        elif k == "trace.overhead_s":
            o = det["overhead"]
            note = (f"  (traced {o['traced_wall_s']:.3f} s - "
                    f"untraced {o['untraced_wall_s']:.3f} s)")
        print(f"{k} = {v['value']:.6g} {v['unit']}{note}")
    if "grid_split" in det:
        g = det["grid_split"]
        total = g["check_main_s"]
        for k, v in g["shares"].items():
            print(f"grid split: {k} {v['seconds']:.3f} s of {total:.3f} s "
                  f"check_main = {100 * v['share']:.1f}%")
        print(f"grid split: stages {sum(g['stages_s'].values()):.3f} s + residual "
              f"{g['residual_s']:.3f} s = {g['stages_plus_residual_s']:.3f} s "
              f"of {total:.3f} s check_main")
    print(f"failed_frac = {res['failed']}/{res['attempted']} "
          f"= {record['failed_frac']:.6g}")
    print(f"result file: {record['file']}")
    print(json.dumps(res))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.WORKLOADS)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    print_report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
