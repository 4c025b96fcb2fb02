"""Workload inputs, operations and output checks of the fflvstring benchmark.

Importing this module puts the checkout's ``src`` directory first on the
import path and refuses any ``fflvstring`` that does not come from there, so
the benchmark always measures the source tree it sits in.

A workload is a list of operations issued in a closed loop by one thread:
each operation is called only after the previous one has returned.  One
pass runs every operation once, starting from empty package caches, because
a command-line user fills them again on every invocation; a workload with
``caches_per_op`` empties them before each operation as well.  Operations
look their library functions up through the module objects at call time, so
the tracer can rebind those names (see ``tracer.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import pkgutil
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fflvstring  # noqa: E402

if Path(fflvstring.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"fflvstring was imported from {fflvstring.__file__}, not {SRC}")

from fflvstring import (  # noqa: E402
    cli, crystal, degenmap, fflv, rootsys, verify, wedge,
)
from fflvstring.rootsys import LieType, dominant_weights, weyl_dim  # noqa: E402

MODULES = tuple(
    importlib.import_module(f"fflvstring.{info.name}")
    for info in pkgutil.iter_modules(fflvstring.__path__)
)


def _find_caches():
    found = {}
    for mod in MODULES:
        for name, value in vars(mod).items():
            if (
                callable(getattr(value, "cache_clear", None))
                and callable(getattr(value, "cache_info", None))
                and getattr(value, "__module__", None) == mod.__name__
            ):
                found[f"{mod.__name__}.{name}"] = value
    return found


# Taken once at import, before the tracer rebinds any module attribute, so
# it always holds the cached functions themselves.
CACHES = _find_caches()


def clear_caches() -> None:
    """Empty every ``functools.lru_cache`` of the package and check it."""
    for fn in CACHES.values():
        fn.cache_clear()
    full = [name for name, fn in CACHES.items() if fn.cache_info().currsize]
    if full:
        raise RuntimeError(f"caches not empty after clearing: {full}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``call`` returns the output to check."""

    case: str
    call: Callable[[], object]
    units: int  # work units the operation completes when its output is correct


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main`` with standard output captured, as a user's pipe would."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _weight_text(w) -> str:
    return ",".join(str(a) for a in w)


def _fundamental(lt: LieType, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i - 1 else 0 for k in range(lt.rank))


def case_id(lt: LieType, w) -> str:
    return f"{lt}{list(w)}"


class Grid:
    """``check_main`` over the acceptance grid, one case per operation.

    The cases are those of ``run_grid(A1-A4 level <= 3, C2-C3 level <= 2)``
    called exactly as ``run_grid`` calls them with one thread; the seed
    permutes their order.  Many small cases share the fundamental and
    matrix caches, and the weight-twist fit does most of the work.
    """

    name = "grid"
    unit = "verified points"
    pass_budget_s = 5.0  # about one pass at full host speed: 5 passes in 25 s
    caches_per_op = False  # one run_grid call: the cases share the caches
    FULL = (
        ("A", 1, 3), ("A", 2, 3), ("A", 3, 3), ("A", 4, 3), ("C", 2, 2), ("C", 3, 2),
    )
    TINY = (("A", 1, 2), ("A", 2, 2), ("C", 2, 1))

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.full = not tiny
        grid = self.TINY if tiny else self.FULL
        self.cases = [(LieType(fam, n), level) for fam, n, level in grid]
        self.canonical = [
            (lt, w)
            for lt, level in self.cases
            for w in dominant_weights(lt.rank, level)
        ]
        order = list(range(len(self.canonical)))
        random.Random(seed).shuffle(order)
        self.order = order

    def inputs(self) -> dict:
        return {
            "cases": len(self.canonical),
            "points": sum(weyl_dim(lt, w) for lt, w in self.canonical),
            "grid": [f"{lt} level<={level}" for lt, level in self.cases],
            "order": [case_id(*self.canonical[k]) for k in self.order],
        }

    def ops(self) -> list[Op]:
        return [
            Op(
                case_id(lt, w),
                lambda lt=lt, w=w: verify.check_main(lt, w),
                weyl_dim(lt, w),
            )
            for lt, w in (self.canonical[k] for k in self.order)
        ]

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        """Per case: status ok, |P| = |Q| = dim, T(P) = Q, pinned bytes."""
        pinned = EXPECTED["grid_cases"]
        ok = []
        for k, op, rep in zip(self.order, ops, outputs):
            dim = weyl_dim(*self.canonical[k])
            ok.append(
                isinstance(rep, verify.VerificationReport)
                and rep.status == "ok"
                and rep.equal
                and rep.fflv_count == rep.string_count == rep.weyl_dim == dim
                and rep.weight_twist is not None
                and sha256(json.dumps(rep.to_dict())) == pinned.get(op.case)
            )
        if self.full and all(ok):
            by_case = {op.case: rep for op, rep in zip(ops, outputs)}
            canonical = [by_case[case_id(lt, w)] for lt, w in self.canonical]
            if sha256(verify.reports_to_json(canonical)) != EXPECTED["grid_report"]:
                ok = [False] * len(ok)
        return ok

    @staticmethod
    def replay(lt: LieType, w, rep) -> bool:
        """Run the stages of ``check_main`` one by one; same strings and twist?"""
        chain = fflv.points(lt, w)
        mat = degenmap.build_matrix(lt)
        trans = degenmap.build_translation(lt, w)
        images = [degenmap.apply_affine(mat, trans, p) for p in chain]
        strings = crystal.string_points(lt, w)
        pairs = [
            (rootsys.fflv_weight(lt, w, p), rootsys.string_weight(lt, w, v))
            for p, v in zip(chain, images)
        ]
        twist, _ = degenmap.weight_twist_solve(lt, w, pairs)
        return set(strings) == set(images) and twist == rep.weight_twist


class Points:
    """``fflv points`` and ``stringpoly points`` documents through ``cli.main``.

    Per family the seed draws one weight from a band of weights with one
    Weyl dimension and matching crystal work.  The A4 band holds the two
    weights of dimension 5600 with equal element and raise-step counts and
    bracket scans within 0.3%; the other bands hold one weight each, since
    no other weight of their dimension matched within a few percent.  So
    the seed changes the inputs but not the amount of work, and runs with
    different seeds stay comparable.  The seed also permutes the commands.
    The string documents of A4, C3 and A5 each take about twice as long as
    the next, so the latency tail, which lies among the samples of the
    slowest two, does not mix commands.
    Crystal saturation and extraction do almost all of the work; these are
    the largest live point sets of the three workloads.
    """

    name = "points"
    unit = "emitted points"
    # 7 passes in 25 s: the tail then falls at the median sample of the
    # second slowest command
    pass_budget_s = 3.5
    # caches emptied once per pass, so that every cache of the pass is live
    # at the peak and peak RSS reads the same from run to run
    caches_per_op = False
    FULL = (
        ("A", 4, ((1, 3, 0, 2), (2, 0, 3, 1))),  # 5600 points
        ("C", 3, ((0, 2, 2),)),  # 2457 points
        ("C", 4, ((0, 1, 0, 1),)),  # 792 points
        ("A", 5, ((4, 0, 1, 0, 0),)),  # 1800 points
    )
    TINY = (("A", 2, ((1, 1),)), ("C", 2, ((0, 1), (1, 0))))

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        rng = random.Random(seed)
        bands = self.TINY if tiny else self.FULL
        self.weights = [(LieType(fam, n), rng.choice(band)) for fam, n, band in bands]
        self.commands = [
            (kind, lt, w) for lt, w in self.weights for kind in ("fflv", "stringpoly")
        ]
        rng.shuffle(self.commands)

    def inputs(self) -> dict:
        return {
            "weights": [
                {"type": str(lt), "weight": list(w), "weyl_dim": weyl_dim(lt, w)}
                for lt, w in self.weights
            ],
            "commands": [
                f"{kind} points {lt} {list(w)}" for kind, lt, w in self.commands
            ],
        }

    @staticmethod
    def argv(kind: str, lt: LieType, w) -> list[str]:
        return [
            kind, "points", "--type", lt.family, "--rank", str(lt.rank),
            "--weight", _weight_text(w),
        ]

    def ops(self) -> list[Op]:
        return [
            Op(
                f"{kind} {case_id(lt, w)}",
                lambda argv=self.argv(kind, lt, w): run_cli(argv),
                weyl_dim(lt, w),
            )
            for kind, lt, w in self.commands
        ]

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        """Exit 0, |P| = |Q| = dim, sorted distinct points, and T(P) = Q."""
        docs = {}
        ok = []
        for (kind, lt, w), out in zip(self.commands, outputs):
            good = False
            try:
                code, text = out
                doc = json.loads(text)
                pts = [tuple(p) for p in doc["points"]]
                good = (
                    code == 0
                    and doc["type"] == lt.family
                    and doc["rank"] == lt.rank
                    and doc["weight"] == list(w)
                    and doc["kind"] == ("fflv" if kind == "fflv" else "string")
                    and len(pts) == weyl_dim(lt, w)
                    and pts == sorted(set(pts))
                )
            except (TypeError, ValueError, KeyError):
                good = False
            if good:
                docs[kind, lt, w] = pts
            ok.append(good)
        for lt, w in self.weights:
            chain = docs.get(("fflv", lt, w))
            strings = docs.get(("stringpoly", lt, w))
            if chain is None or strings is None:
                continue
            mat = degenmap.build_matrix(lt)
            trans = degenmap.build_translation(lt, w)
            if {degenmap.apply_affine(mat, trans, p) for p in chain} != set(strings):
                for k, (_, lt2, w2) in enumerate(self.commands):
                    if (lt2, w2) == (lt, w):
                        ok[k] = False
        return ok


def _sweep_argv(name: str, spec: dict) -> list[str]:
    return ["verify", name, "--max-rank", str(spec[name])]


def _comm_checks(max_rank: int) -> int:
    return sum(m * m * (1 + m) for _ in ("A", "C") for m in range(1, max_rank + 1))


class Sweeps:
    """Property sweeps: determinants, wedge actions and the path inequalities.

    ``verify unimodular`` (det of matrices up to 144 x 144), ``verify comm``,
    ``verify fold``, the type-A wedge oracle with its minimality checks, and
    the Dyck-path cross-check.  It runs neither the crystal nor the twist
    fit, so it is the workload that measures ``wedge`` and ``exact``.  The
    seed permutes the operations; each starts from empty caches, as its own
    invocation would, so the order changes no operation's work.
    """

    name = "sweeps"
    unit = "checks"
    # 20 passes in 25 s, more than the pass time allows: the slowest command
    # then has 20 samples and the tail falls at their median, not among the
    # fastest few, which swing with the host's speed within the command
    pass_budget_s = 1.25
    caches_per_op = True  # each command or check is its own invocation
    # max-rank of each CLI sweep, ranks of the oracle checks, Dyck check case
    FULL = {"unimodular": 12, "comm": 6, "fold": 8, "oracle": (4, 5),
            "dyck": (4, (1, 1, 1, 1))}
    TINY = {"unimodular": 3, "comm": 2, "fold": 2, "oracle": (2, 3),
            "dyck": (2, (1, 1))}

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        spec = self.TINY if tiny else self.FULL
        self.spec = spec
        # (argv, checks made): one determinant per family and rank, the
        # commutation table entries, one fold comparison per (rank, index)
        self.commands = [
            (_sweep_argv("unimodular", spec), 2 * spec["unimodular"]),
            (_sweep_argv("comm", spec), _comm_checks(spec["comm"])),
            (_sweep_argv("fold", spec), sum(range(1, spec["fold"] + 1))),
        ]
        self.oracles = [
            (LieType("A", n), i) for n in spec["oracle"] for i in range(1, n + 1)
        ]
        items = (
            [("cli", k) for k in range(len(self.commands))]
            + [("oracle", k) for k in range(len(self.oracles))]
            + [("dyck", 0)]
        )
        random.Random(seed).shuffle(items)
        self.items = items

    def inputs(self) -> dict:
        return {"operations": [self._case(kind, k) for kind, k in self.items]}

    def _case(self, kind: str, k: int) -> str:
        if kind == "cli":
            return " ".join(self.commands[k][0])
        if kind == "oracle":
            lt, i = self.oracles[k]
            return f"oracle {lt} omega_{i}"
        n, w = self.spec["dyck"]
        return f"dyck A{n}{list(w)}"

    @staticmethod
    def _oracle(lt: LieType, i: int):
        found = wedge.oracle_string_points_A(lt, i)
        minimal = [
            wedge.minimality_check_A(lt, i, p) for p in fflv.fundamental_points(lt, i)
        ]
        return found, minimal

    @staticmethod
    def _dyck(n: int, w) -> bool:
        return fflv.dyck_check_A(n, w, fflv.points(LieType("A", n), w))

    def ops(self) -> list[Op]:
        ops = []
        for kind, k in self.items:
            case = self._case(kind, k)
            if kind == "cli":
                argv, units = self.commands[k]
                ops.append(Op(case, lambda argv=argv: run_cli(argv), units))
            elif kind == "oracle":
                lt, i = self.oracles[k]
                units = 1 + weyl_dim(lt, _fundamental(lt, i))
                ops.append(Op(case, lambda lt=lt, i=i: self._oracle(lt, i), units))
            else:
                n, w = self.spec["dyck"]
                ops.append(Op(case, lambda n=n, w=w: self._dyck(n, w), 1))
        return ops

    def check(self, ops: list[Op], outputs: list) -> list[bool]:
        """Exit 0 with pinned output, oracle = crystal strings, all checks True."""
        pinned = EXPECTED["sweeps_stdout"]
        ok = []
        for (kind, k), op, out in zip(self.items, ops, outputs):
            if kind == "cli":
                good = (
                    isinstance(out, tuple)
                    and out[0] == 0
                    and sha256(out[1]) == pinned.get(op.case)
                )
            elif kind == "oracle":
                lt, i = self.oracles[k]
                good = (
                    isinstance(out, tuple)
                    and all(out[1])
                    and len(out[1]) == weyl_dim(lt, _fundamental(lt, i))
                    and out[0] == crystal.string_points(lt, _fundamental(lt, i))
                )
            else:
                good = out is True
            ok.append(good)
        return ok


WORKLOADS = {cls.name: cls for cls in (Grid, Points, Sweeps)}


def make(name: str, seed: int, tiny: bool = False):
    """The named workload; ``tiny`` shrinks its inputs to a smoke test."""
    wl = WORKLOADS[name](seed, tiny)
    if tiny:
        wl.pass_budget_s = 1.0
    return wl
