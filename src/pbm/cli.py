"""Command-line interface.

Results go to stdout as JSON; a one-line human summary goes to stderr.
Exit codes: 0 for feasible/optimal outcomes, 2 for infeasible with a
certificate, 3 for unbounded optimization, 1 for usage or data errors.

Subcommands: check, solve, sum, cost, decompose, asm, subordinate, wasm,
eval, oracle.  See docs/schema.md for the JSON formats.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import fields
from itertools import chain, product, starmap
from typing import Sequence

from .core import (
    ExtInt,
    IntMatrix,
    SubsetMask,
    instance_from_json,
    mask_from_json,
    mask_to_json,
    matrix_from_json,
)
from .decompose import decompose
from .errors import InstanceFormatError, PbmError
from .feasibility import (
    check_strict,
    extremal_total_sum,
    optimize_cost,
    pin_entries,
    solve,
)
from .circulation import build_network, circulation_from_matrix, network_to_dot
from .strongpair import condition_values, eval_strong_pair

# asmkit and oracle load inside the commands that use them, so solving never compiles them

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3

# Exit code by the document's status; documents without one exit 0.
_EXIT = {
    None: EXIT_OK,
    "feasible": EXIT_OK,
    "optimal": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "unbounded": EXIT_UNBOUNDED,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_arg(raw: str):
    """Inline JSON, or @path to read it from a file."""
    if raw.startswith("@"):
        return _load_json(raw[1:])
    return json.loads(raw)


def _pins_from_json(raw) -> list[tuple[int, int, int]]:
    """Pinned entries from ``[[i, j, value], ...]``, all JSON integers."""
    if not isinstance(raw, list):
        raise InstanceFormatError("prescription must be a list of [i, j, value] triples")
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or any(isinstance(x, bool) or not isinstance(x, int) for x in item)
        ):
            raise InstanceFormatError(
                f"bad prescribed entry {item!r}; expected [i, j, value] of integers"
            )
    return [tuple(item) for item in raw]


def _record_json(record) -> dict:
    """A record's fields, in order, as its document's keys; a tuple holds records."""
    doc: dict = {}
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, ExtInt):
            value = value.to_json()
        elif isinstance(value, SubsetMask):
            value = mask_to_json(value)
        elif isinstance(value, tuple):
            value = [*map(_record_json, value)]
        doc[field.name] = value
    return doc


def _timed(solver, *args) -> tuple:
    """``solver(*args, info)``, and the ``diagnostics`` block that docs/schema.md lays out."""
    info: dict = {}
    t0 = time.perf_counter()
    result = solver(*args, info)
    wall_s = time.perf_counter() - t0
    diagnostics = {k: info[k] for k in ("arcs", "nodes", "pushes", "relabels")}
    return result, {**diagnostics, "wall_ms": round(wall_s * 1000.0, 3)}


def _outcome(result, **head) -> dict:
    """The document of any solver result: its status, ``head``, then its answer."""
    doc: dict = {"status": result.status, **head}
    if result.value is not None:
        doc["value"] = result.value
    if result.matrix is not None:
        doc["matrix"] = result.matrix.to_lists()
    if result.certificate is not None:
        doc["certificate"] = _record_json(result.certificate)
    if result.family is not None:
        doc["family"] = _record_json(result.family)
    return doc


def _summary(result) -> str:
    """Feasible, infeasible, or the size of the segment family that proves it."""
    family = result.family
    if family is not None:
        return f"infeasible: {family.size} segments found, {family.required} required"
    return "feasible" if result.is_feasible else "infeasible"


def _optimum_summary(result, what: str) -> str:
    if result.status == "optimal":
        return f"optimal: {result.direction} {what} = {result.value}"
    if result.status == "unbounded":
        return f"unbounded in direction {result.direction}"
    return "infeasible"


def _agrees(found: list, result) -> bool:
    """Whether the oracle found matrices exactly when the result has one, and lists it."""
    return bool(found) == result.is_feasible and (
        result.matrix is None or result.matrix in found
    )


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)``, for a value nested ``depth`` levels deep.

    With ``indent`` set, the standard encoder runs in pure Python.  Here
    int lists and tables of equal-length int rows, which hold nearly all of
    a document's bytes, are joined in C; string-keyed objects and other
    lists recurse; every other value is left to ``json.dumps``, whose lines
    are then shifted right by ``depth`` levels.
    """
    kind = type(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return _encode_str(obj)
    if obj and kind is list:
        inner = "\n" + "  " * (depth + 1)
        close = "\n" + "  " * depth + "]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            return "[" + inner + ("," + inner).join(map(str, obj)) + close
        if kinds == {list}:
            widths = set(map(len, obj))
            if len(widths) == 1 and 0 not in widths and set(
                map(type, chain.from_iterable(obj))
            ) == {int}:
                deeper = inner + "  "
                row = "[" + deeper + ("," + deeper).join(["{}"] * widths.pop()) + inner + "]"
                return "[" + inner + ("," + inner).join(starmap(row.format, obj)) + close
        return "[" + inner + ("," + inner).join([_json_text(v, depth + 1) for v in obj]) + close
    if obj and kind is dict and set(map(type, obj)) == {str}:
        inner = "\n" + "  " * (depth + 1)
        items = [_encode_str(k) + ": " + _json_text(v, depth + 1) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "}"
    # the encoder escapes every newline inside a string, so each one here starts a line
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def _finish(doc: dict, summary: str, record: "dict | None" = None) -> int:
    """Attach the oracle's record, print the document, return the exit code."""
    agrees = True
    if record is not None:
        doc["oracle"] = record
        agrees = record["agrees"]
    sys.stdout.write(_json_text(doc) + "\n")
    print(summary if agrees else "oracle disagrees with solver", file=sys.stderr)
    return _EXIT[doc.get("status")] if agrees else EXIT_ERROR


def _cmd_solve(args) -> int:
    """``check`` and ``solve``; ``check`` leaves the matrix out."""
    inst = instance_from_json(_load_json(args.instance))
    if args.prescribe:
        inst = pin_entries(inst, _pins_from_json(_load_arg(args.prescribe)))
    result, diagnostics = _timed(solve, inst)
    if args.dump_dot:
        circ = None if result.matrix is None else circulation_from_matrix(inst, result.matrix)
        with open(args.dump_dot, "w") as fh:
            fh.write(network_to_dot(build_network(inst), circ))
    doc = _outcome(result)
    if args.command == "check":
        doc.pop("matrix", None)
    doc["diagnostics"] = diagnostics
    record = None
    if args.oracle:
        from . import oracle

        matrices = oracle.enumerate_pbms(inst)
        record = {"count": len(matrices), "agrees": _agrees(matrices, result)}
    cert = result.certificate
    if cert is None:
        return _finish(doc, "feasible", record)
    return _finish(doc, f"infeasible: {cert.violated} violated ({cert.lhs} > {cert.rhs})", record)


def _cmd_sum(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    direction = "max" if args.max else "min"
    result, diagnostics = _timed(extremal_total_sum, inst, direction)
    doc = _outcome(result, direction=direction)
    doc["diagnostics"] = diagnostics
    record = None
    if args.oracle:
        from . import oracle

        lo, hi = oracle.oracle_extremal_sums(inst)
        want = hi if direction == "max" else lo
        agrees = {
            "optimal": want.is_finite and want.value == result.value,
            "unbounded": not want.is_finite,
            "infeasible": hi < lo,
        }[result.status]
        record = {"min": lo.to_json(), "max": hi.to_json(), "agrees": agrees}
    return _finish(doc, _optimum_summary(result, "total"), record)


def _cmd_cost(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    costs = matrix_from_json(_load_json(args.costs))
    direction = "max" if args.max else "min"
    result, diagnostics = _timed(optimize_cost, inst, costs, direction)
    doc = _outcome(result, direction=direction)
    doc["diagnostics"] = diagnostics
    record = None
    if args.oracle:
        from . import oracle

        matrices = oracle.enumerate_pbms(inst)
        if not matrices:
            record = {"count": 0, "agrees": result.status == "infeasible"}
        else:
            values = [sum(costs.at(i, j) * v for i, j, v in mat.cells()) for mat in matrices]
            want = max(values) if direction == "max" else min(values)
            agrees = result.status == "optimal" and result.value == want
            record = {"count": len(matrices), "value": want, "agrees": agrees}
    return _finish(doc, _optimum_summary(result, "cost"), record)


def _cmd_decompose(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    mat = matrix_from_json(_load_json(args.matrix))
    dec = decompose(inst, mat, args.k)
    doc = {
        "k": dec.k,
        "parts": [
            {"matrix": part.to_lists(), "multiplicity": mult} for part, mult in dec.parts
        ],
    }
    return _finish(doc, f"decomposed into {len(dec.parts)} distinct parts")


def _cmd_asm(args) -> int:
    from . import asmkit

    part = None
    if args.compatible:
        part = asmkit.SPartition.from_labels(_load_arg(args.compatible))
        n = part.n
    elif args.n is not None:
        n = args.n
    else:
        print("error: give an order n or --compatible", file=sys.stderr)
        return EXIT_ERROR
    if args.oracle and n > 6:
        print("error: --oracle supports n at most 6 here", file=sys.stderr)
        return EXIT_ERROR
    result = solve(asmkit.asm_instance(n)) if part is None else asmkit.compatible_asm(part)
    record = None
    if args.oracle:
        from . import oracle

        census = [mtx for mtx in oracle.enumerate_asms(n) if part is None or part.allows(mtx)]
        record = {"count": len(census), "agrees": _agrees(census, result)}
    return _finish(_outcome(result, n=n), _summary(result), record)


def _cmd_subordinate(args) -> int:
    from . import asmkit

    x = matrix_from_json(_load_json(args.matrix))
    if args.maximize:
        result = asmkit.max_plus_ones_subordinate(x)
    else:
        result = asmkit.subordinate_asm(x)
    doc = _outcome(result)
    summary = _summary(result)
    counted = args.maximize and result.is_feasible
    if counted:
        # the optimum reads as a feasible subordinate ASM that keeps this many +1 entries
        doc["status"] = "feasible"
        doc["plus_ones_kept"] = doc.pop("value")
        summary = f"feasible: kept {result.value} of the +1 entries"
    record = None
    if args.oracle:
        from . import oracle

        subs = oracle.enumerate_subordinates(x)
        agrees = _agrees(subs, result)
        if counted:
            best = max(sum(1 for _, _, v in s.cells() if v == 1) for s in subs) if subs else None
            record = {"count": len(subs), "best": best, "agrees": agrees and best == result.value}
        else:
            record = {"count": len(subs), "agrees": agrees}
    return _finish(doc, summary, record)


def _cmd_wasm(args) -> int:
    from . import asmkit

    patterns = _load_json(args.patterns)
    if not isinstance(patterns, dict):
        raise InstanceFormatError('wing patterns must be a JSON object with "rows" and "cols"')
    rows, cols = patterns["rows"], patterns["cols"]
    inst = asmkit.wasm_instance(rows, cols)
    m, n = len(rows), len(cols)
    if args.oracle and m * n > 12:
        print("error: --oracle supports at most 12 cells here", file=sys.stderr)
        return EXIT_ERROR
    result = solve(inst)
    record = None
    if args.oracle:
        from . import oracle

        grids = (
            IntMatrix(m, n, tuple(combo[r * n : (r + 1) * n] for r in range(m)))
            for combo in product((-1, 0, 1), repeat=m * n)
        )
        exists = any(oracle.is_wasm(grid, rows, cols) for grid in grids)
        record = {"agrees": exists == result.is_feasible}
    return _finish(_outcome(result), _summary(result), record)


def _cmd_eval(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    mask = mask_from_json(inst.m, inst.n, _load_arg(args.subset))
    ev = eval_strong_pair(inst, mask)
    doc = _record_json(ev)
    summary = " ".join(f"{key}={value}" for key, value in doc.items())
    if args.subset2:
        mask2 = mask_from_json(inst.m, inst.n, _load_arg(args.subset2))
        cond = condition_values(inst, mask, mask2)
        doc["condition"] = {
            rec.name: {"lhs": rec.lhs.to_json(), "rhs": rec.rhs.to_json(), "holds": rec.holds}
            for rec in cond.records()
        }
        doc["all_hold"] = cond.all_hold
    record = None
    if args.oracle:
        from . import oracle

        h = oracle.line_polytope_minmax(inst, mask, "horizontal")
        v = oracle.line_polytope_minmax(inst, mask, "vertical")
        agrees = (
            ev.p1 == h[0] and ev.b1 == h[1] and ev.p2 == v[0] and ev.b2 == v[1]
        )
        record = {"horizontal": list(h), "vertical": list(v), "agrees": agrees}
        doc["oracle"] = record  # placed here so that the strict fields follow it
    common_sum = check_strict(inst)
    doc["strict"] = common_sum is not None
    if common_sum is not None:
        doc["common_sum"] = common_sum
    return _finish(doc, summary, record)


def _cmd_oracle(args) -> int:
    from . import oracle

    inst = instance_from_json(_load_json(args.instance))
    budget = oracle.EnumerationBudget(
        max_cells=args.max_cells, max_range_width=args.max_width, max_nodes=args.max_nodes
    )
    matrices = oracle.enumerate_pbms(inst, budget)
    doc = {"count": len(matrices), "matrices": [mtx.to_lists() for mtx in matrices]}
    return _finish(doc, f"{len(matrices)} matrices")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once: parsing leaves no state in it."""
    parser = _Parser(prog="pbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_oracle(p):
        p.add_argument(
            "--oracle", action="store_true", help="cross-check against the brute-force oracle"
        )

    for name, help_text in (
        ("check", "decide feasibility of an instance"),
        ("solve", "find a matrix meeting all bounds"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance JSON file, or - for stdin")
        p.add_argument("--prescribe", help="JSON [[i,j,value],...] of pinned entries (or @file)")
        p.add_argument("--dump-dot", metavar="PATH", help="write the network in DOT form")
        add_oracle(p)
        p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("sum", help="extremal total sum over the instance")
    p.add_argument("instance")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--max", action="store_true")
    grp.add_argument("--min", action="store_true")
    add_oracle(p)
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("cost", help="optimize a linear cost over the instance")
    p.add_argument("instance")
    p.add_argument("--costs", required=True, help="cost matrix JSON file")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--max", action="store_true")
    grp.add_argument("--min", action="store_true", default=True)
    add_oracle(p)
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("decompose", help="split a matrix into k bounded parts")
    p.add_argument("instance")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("-k", type=int, required=True, help="number of parts")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("asm", help="alternating sign matrices, plain or constrained")
    p.add_argument("n", type=int, nargs="?", help="order of the matrix")
    p.add_argument("--compatible", metavar="PARTITION",
                   help="label grid JSON (or @file) of 0,+1,-1,+,-,F")
    add_oracle(p)
    p.set_defaults(func=_cmd_asm)

    p = sub.add_parser("subordinate", help="ASM under a sign pattern")
    p.add_argument("matrix", help="(0,+-1) matrix JSON file")
    p.add_argument("--maximize", action="store_true", help="keep as many +1 entries as possible")
    add_oracle(p)
    p.set_defaults(func=_cmd_subordinate)

    p = sub.add_parser("wasm", help="matrix with per-line wing patterns")
    p.add_argument("patterns", help='JSON file {"rows": ["++",...], "cols": [...]}')
    add_oracle(p)
    p.set_defaults(func=_cmd_wasm)

    p = sub.add_parser("eval", help="strong-pair values of a cell subset")
    p.add_argument("instance")
    p.add_argument("--subset", required=True, help="JSON [[i,j],...] (or @file)")
    p.add_argument("--subset2", help="second subset: also evaluate the four inequalities")
    add_oracle(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="enumerate all matrices of a small instance")
    p.add_argument("instance")
    p.add_argument("--max-cells", type=int, default=9)
    p.add_argument("--max-width", type=int, default=5)
    p.add_argument("--max-nodes", type=int, default=100_000_000)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    # exact bounds of any size are read and printed; callers in this process get the
    # limit back (CPython before 3.10.7 has no limit to lift)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (PbmError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
