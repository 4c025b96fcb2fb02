"""Command-line front end with stable JSON output.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
fault: a failed gate, or a ``ValueError`` that escapes the library after the
input was validated.  Identical invocations produce byte-identical
documents.  A command refuses a weight whose module dimension exceeds
``--max-dim`` before it enumerates anything; each ``verify`` sweep likewise
refuses a rank whose matrix, exterior-power tables or packed translations
hold more entries, rows or digits than that (its ``verify.SWEEPS`` size).
``verify main`` and ``stringpoly points`` refuse a type of N labels whose
N^2 exceeds both ``--max-dim`` and the default: one builds the N x N
matrix, the other a step table of N(N-1)/2 string digits, even at a weight
of dimension 1.  Flags are inputs or the settings ``--max-dim``, ``--json``
and ``--out``; none is for tests.

A leaf is a complete command, ``fflv points``, ``stringpoly points`` or
``verify main|unimodular|fold|comm``; its ``LEAVES`` entry holds its help
text, option adder and handler.  If argv's first two words name a leaf, its
own parser parses the rest, and its result stands if no word is left over;
any other argv goes to the full tree (``build_parser``), which prints help,
usage lines and errors.  Either way the outcome is the tree's: the tree hands
a leaf's words to the same parser, and only a word left over reaches its error.
An option's argparse type checks its value as argv is parsed, every integer of
``--weight`` too (only its length is checked later, against ``--rank``), so of
several bad options the first in argv is reported, even one before ``-h``.
Every integer is read by one grammar, ``_INTEGER``: an optional sign and ASCII
digits, spaces around.  ``verify main`` flushes its rows case by case.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import nullcontext
from functools import lru_cache, partial

from .crystal import packed_string_points
from .errors import VerificationError
from .fflv import packed_points
from .rootsys import (
    LieType,
    build_labels,
    dominant_weights,
    reduced_word,
    root_count,
    unpack,
    weyl_dim,
)
from .verify import SWEEPS, all_passed, check_main, reports_to_json

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_GATE_FAILURE = 3
DEFAULT_MAX_DIM = 200_000
_DIM_TEXT = "refuse a weight whose module dimension exceeds this"
_INTEGER = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)


class UsageError(Exception):
    pass


def _parse_type(value: str) -> str:
    if value not in ("A", "C"):
        raise UsageError(f"--type must be A or C, got {value!r}")
    return value


def _at_least(option: str, least: int, rule: str):
    """argparse type for an integer option of at least ``least``, worded ``rule``."""

    def parse(text: str) -> int:
        value = int(text) if _INTEGER.fullmatch(text) else least - 1
        if value < least:
            raise UsageError(f"{option} must be {rule}, got {text!r}")
        return value

    return parse


def _coefficients(text: str) -> tuple[int, ...]:
    """argparse type of ``--weight``: each comma-separated part read by ``_at_least``."""
    coefficient = _at_least("--weight", 0, "comma-separated nonnegative integers")
    return tuple(map(coefficient, text.split(",")))


def _check_dim(lt: LieType, weights, max_dim: int) -> None:
    """Refuse the first weight whose module dimension exceeds the budget."""
    for w in weights:
        dim = weyl_dim(lt, w)
        if dim > max_dim:
            raise UsageError(
                f"{lt} {tuple(w)} has dimension {dim}, above --max-dim {max_dim}"
            )


def _check_size(what: str, size: int, max_dim: int) -> None:
    """Refuse a matrix or a table larger than the budget."""
    if size > max_dim:
        raise UsageError(f"{what}: {size}, above --max-dim {max_dim}")


def _check_type_size(lt: LieType, unit: str, max_dim: int) -> None:
    """Refuse a type whose label count squared exceeds the budget and the default.

    A budget set below the default to limit the weights does not refuse a
    type the default admits: A2 at --max-dim 8 keeps its 3 x 3 matrix.
    """
    _check_size(f"{lt} {unit}", root_count(lt) ** 2, max(max_dim, DEFAULT_MAX_DIM))


def _check_out_path(out_path: str) -> str:
    """argparse type of ``--out`` and ``--json``: a path that can be written."""
    parent = os.path.dirname(os.path.abspath(out_path))
    if not out_path or os.path.isdir(out_path) or not os.path.isdir(parent):
        raise UsageError(f"cannot write {out_path!r}: not a file in an existing directory")
    return out_path


def _emit(text: str, out_path: str | None) -> None:
    with open(out_path, "w", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
        fh.write(text)


def polytope_document(lt: LieType, weight, kind: str) -> dict:
    """Stable JSON document for one lattice-point set, its points packed.

    ``points`` is the triple (sorted ints, n, b) of ``packed_points`` or
    ``packed_string_points``: ``render_document`` writes the rows from it,
    and ``rootsys.unpack(*doc["points"])`` decodes it.
    """
    packed = packed_points if kind == "fflv" else packed_string_points
    doc = {
        "type": lt.family,
        "rank": lt.rank,
        "weight": list(weight),
        "kind": kind,
        "labels": [
            {"row": lab.row, "col": lab.col, "barred": lab.barred}
            for lab in build_labels(lt)
        ],
    }
    if kind == "string":
        doc["word"] = list(reduced_word(lt))
    doc["points"] = packed(lt, weight)
    return doc


# the text after a coordinate: after the last one of a point it closes the
# row and opens the next, after the last one of the document it closes all
_NEXT_ROW = "\n    ],\n    [\n      "
_CLOSE = "\n    ]\n  ]\n}\n"
# digit place p (1, 10, 100) of a byte below 128 as an ASCII digit, NUL
# where the number has no such digit; the units place is always written
_PLACE = {
    p: bytes(48 + v // p % 10 if v >= p or p == 1 else 0 for v in range(256))
    for p in (1, 10, 100)
}
# a label of the document's list, as json's indented encoder writes it
_LABEL = '{\n      "row": %d,\n      "col": %d,\n      "barred": %s\n    }'


def _caption(doc: dict) -> str:
    """What ``json.dumps(doc, indent=2)`` writes before the rows of the last key,
    ``points``: scalars through json, the labels and (nonempty) int lists by template."""
    items = []
    for key, value in list(doc.items())[:-1]:
        if key == "labels":
            value = [_LABEL % (v["row"], v["col"], str(v["barred"]).lower()) for v in value]
        text = json.dumps(value) if not isinstance(value, list) else (
            "[\n    %s\n  ]" % ",\n    ".join(map(str, value)))
        items.append(f'"{key}": {text}')
    return "{\n  " + ",\n  ".join(items) + ',\n  "points": [\n    [\n      '


def render_document(doc: dict) -> str:
    """What ``json.dumps(doc, indent=2)`` plus a newline writes, byte for
    byte, with the packed points decoded into lists.

    json's indented encoder is pure Python and visits every value, so only
    the scalars of ``_caption`` go through it.  On byte digits every
    coordinate is below 128 and each point is n bytes of one blob.  The
    document is then one buffer: the caption, then one row template per
    point, each coordinate ``width`` cells wide, ``width`` being the digit
    count of the largest coordinate.  Each digit place of each coordinate
    is written into every row at once by one strided slice assignment, and
    the cells a shorter number leaves empty are deleted.  This is exact:
    json writes an int as its decimal digits; a cell keeps its NUL only in
    a leading place its number lacks; and neither the caption nor the
    template holds a NUL.  Wider digits decode with ``unpack`` and fill one
    row template per point; ``%s`` writes an ``int`` as json does.
    """
    ints, n, b = doc["points"]
    head = _caption(doc)
    # b = 8 iff the level or letter count is at most 127 (``pack_width``); the
    # points are nonnegative, so each coordinate is one byte below 128
    if b == 8:
        blob = b"".join([x.to_bytes(n, "big") for x in ints])
        width = 1 + sum(bool(blob.translate(None, bytes(range(p)))) for p in (10, 100))
        cell = b"\0" * width
        row = (cell + b",\n      ") * (n - 1) + cell + _NEXT_ROW.encode()
        buf = bytearray(head.encode())
        start = len(buf)
        buf += row * len(ints)
        for t, p in enumerate((100, 10, 1)[3 - width:]):
            digits = blob.translate(_PLACE[p])
            for k in range(n):
                # coordinate k starts after k cells and their 8-byte ",\n      "
                buf[start + (width + 8) * k + t :: len(row)] = digits[k::n]
        buf[-len(_NEXT_ROW):] = _CLOSE.encode()
        if width > 1:
            buf = buf.translate(None, b"\0")
        return buf.decode()
    row = ",\n      ".join(["%s"] * n)
    return head + _NEXT_ROW.join([row % p for p in unpack(ints, n, b)]) + _CLOSE


def _cmd_points(args, kind: str) -> int:
    lt, weight = LieType(args.type, args.rank), args.weight
    if len(weight) != lt.rank:
        raise UsageError(f"--weight needs exactly {lt.rank} coefficients, got {len(weight)}")
    if kind == "string":
        _check_type_size(lt, "labels squared", args.max_dim)
    _check_dim(lt, [weight], args.max_dim)
    doc = polytope_document(lt, weight, kind)
    _emit(render_document(doc), args.out)
    return EXIT_OK


def _cmd_verify_main(args) -> int:
    lt = LieType(args.type, args.rank)
    _check_type_size(lt, "matrix entries", args.max_dim)
    _check_dim(lt, dominant_weights(lt.rank, args.max_level), args.max_dim)
    print(f"{'case':<16}{'fflv':>6}{'string':>8}{'dim':>6}  {'status':<8}{'twist':<7}")
    reports = []
    for w in dominant_weights(lt.rank, args.max_level):
        start = time.perf_counter()
        reports.append(rep := check_main(lt, w))
        seconds = time.perf_counter() - start
        case = f"{rep.family}{rep.rank} {rep.weight}"
        twist = "ok" if rep.weight_twist is not None else "none"
        print(f"{case:<16}{rep.fflv_count:>6}{rep.string_count:>8}{rep.weyl_dim:>6}  "
              f"{rep.status:<8}{twist:<7}({seconds:.3f}s)")
        if rep.weight_twist is None:
            src, tgt = (", ".join(map(str, v)) for v in rep.twist_witness)
            print(f"  twist witness: source [{src}], companion [{tgt}]")
        for p in rep.missing:
            print(f"  missing string point: {list(p)}")
        for p in rep.extra:
            print(f"  unmatched image point: {list(p)}")
        sys.stdout.flush()
    if args.json:
        _emit(reports_to_json(reports), args.json)
    return EXIT_OK if all_passed(reports) else EXIT_VERIFICATION_FAILED


def _cmd_verify_sweep(args) -> int:
    sweep, _, unit, size = SWEEPS[args.subcommand]
    # sizes grow with the rank: the first rank above the budget is refused
    for rank in range(1, args.max_rank + 1):
        _check_size(f"{LieType('C', rank)} {unit}", size(rank), args.max_dim)
    lines, failures = sweep(args.max_rank)
    print("\n".join(lines))
    return EXIT_VERIFICATION_FAILED if failures else EXIT_OK


def _add_points_args(cmd: argparse.ArgumentParser, max_dim_text: str = _DIM_TEXT) -> None:
    cmd.add_argument("--type", type=_parse_type, required=True)
    cmd.add_argument("--rank", type=_at_least("--rank", 1, "a positive integer"), required=True)
    cmd.add_argument("--weight", type=_coefficients, required=True)
    _add_max_dim(cmd, max_dim_text)
    cmd.add_argument("--out", type=_check_out_path)


def _add_main_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--type", type=_parse_type, required=True)
    cmd.add_argument("--rank", type=_at_least("--rank", 1, "a positive integer"), required=True)
    cmd.add_argument("--max-level", type=_at_least("--max-level", 0, "nonnegative"), required=True)
    _add_max_dim(
        cmd,
        f"{_DIM_TEXT}, or a matrix whose entry count exceeds both this "
        f"and {DEFAULT_MAX_DIM}",
    )
    cmd.add_argument("--json", type=_check_out_path)


def _add_sweep_args(cmd: argparse.ArgumentParser, unit: str) -> None:
    cmd.add_argument("--max-rank", type=_at_least("--max-rank", 1, "at least 1"), required=True)
    _add_max_dim(cmd, f"refuse a rank whose {unit} exceed this")


def _add_max_dim(cmd: argparse.ArgumentParser, text: str = _DIM_TEXT) -> None:
    cmd.add_argument(
        "--max-dim",
        type=_at_least("--max-dim", 1, "a positive integer"),
        default=DEFAULT_MAX_DIM,
        help=f"{text} (default {DEFAULT_MAX_DIM})",
    )


COMMANDS = {
    "fflv": "chain polytope lattice points",
    "stringpoly": "string polytope lattice points",
    "verify": "theorem verification sweeps",
}
# (command, subcommand) -> (help text, option adder, handler), in the tree's order
LEAVES = {
    ("fflv", "points"): (
        "emit a point document", _add_points_args, partial(_cmd_points, kind="fflv")
    ),
    ("stringpoly", "points"): (
        "emit a point document",
        partial(
            _add_points_args,
            max_dim_text=f"{_DIM_TEXT}, or a type whose label count squared "
            f"exceeds both this and {DEFAULT_MAX_DIM}",
        ),
        partial(_cmd_points, kind="string"),
    ),
    ("verify", "main"): ("set equality over a weight grid", _add_main_args, _cmd_verify_main),
    **{
        ("verify", name): (text, partial(_add_sweep_args, unit=unit), _cmd_verify_sweep)
        for name, (_, text, unit, _) in SWEEPS.items()
    },
}


@lru_cache(maxsize=None)
def leaf_parser(command: str, subcommand: str) -> argparse.ArgumentParser:
    """One leaf's parser alone, as the full tree builds it under its command."""
    parser = argparse.ArgumentParser(prog=f"fflvstring {command} {subcommand}")
    LEAVES[command, subcommand][1](parser)
    return parser


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The full tree: the root, its commands and every leaf with its options."""
    parser = argparse.ArgumentParser(
        prog="fflvstring",
        description="Exact lattice-point pipelines for chain and string polytopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {
        command: sub.add_parser(command, help=text).add_subparsers(
            dest="subcommand", required=True
        )
        for command, text in COMMANDS.items()
    }
    for (command, name), (text, add_args, _) in LEAVES.items():
        add_args(subs[command].add_parser(name, help=text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv by the parser of the leaf that ``argv[:2]`` names if it leaves no
    word over, else by the full tree."""
    if tuple(argv[:2]) in LEAVES:
        args, rest = leaf_parser(*argv[:2]).parse_known_args(argv[2:])
        if not rest:
            args.command, args.subcommand = argv[:2]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return LEAVES[args.command, args.subcommand][2](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"internal gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE_FAILURE
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_GATE_FAILURE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
