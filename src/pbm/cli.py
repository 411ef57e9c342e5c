"""Command-line interface.

Results go to stdout as JSON; a one-line human summary goes to stderr.
Exit codes: 0 for feasible/optimal outcomes, 2 for infeasible with a
certificate, 3 for unbounded optimization, 1 for usage or data errors.

Subcommands: check, solve, sum, cost, decompose, asm, subordinate, wasm,
eval, oracle.  See docs/schema.md for the JSON formats.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from . import asmkit, oracle
from .core import (
    IntMatrix,
    PbmInstance,
    instance_from_json,
    mask_from_json,
    mask_to_json,
    matrix_from_json,
)
from .decompose import decompose
from .errors import BudgetExceeded, PbmError
from .feasibility import (
    Certificate,
    check_strict,
    extremal_total_sum,
    optimize_cost,
    solve,
    solve_with_prescription,
)
from .circulation import network_to_dot
from .strongpair import eval_strong_pair

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_arg(raw: str):
    """Inline JSON, or @path to read it from a file."""
    if raw.startswith("@"):
        return _load_json(raw[1:])
    return json.loads(raw)


def _emit(doc: dict, summary: str) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _certificate_json(cert: Certificate) -> dict:
    return {
        "x1": mask_to_json(cert.x1),
        "x2": mask_to_json(cert.x2),
        "case": cert.case,
        "violated": cert.violated,
        "lhs": cert.lhs.to_json(),
        "rhs": cert.rhs.to_json(),
    }


def _family_json(family: asmkit.SegmentFamilyCertificate) -> dict:
    return {
        "segments": [
            {
                "orientation": seg.orientation,
                "line": seg.line,
                "start": seg.start,
                "end": seg.end,
            }
            for seg in family.segments
        ],
        "size": family.size,
        "uncovered_minus_ones": family.uncovered_minus_ones,
        "twice_covered_plus_ones": family.twice_covered_plus_ones,
        "required": family.required,
    }


def _diagnostics(info: dict, wall_s: float) -> dict:
    return {
        "arcs": info.get("arcs"),
        "nodes": info.get("nodes"),
        "augmentations": info.get("augmentations", 0),
        "phases": info.get("phases", 0),
        "wall_ms": round(wall_s * 1000.0, 3),
    }


def _maybe_dump_dot(args, info: dict) -> None:
    if getattr(args, "dump_dot", None) and "network" in info:
        with open(args.dump_dot, "w") as fh:
            fh.write(network_to_dot(info["network"], info.get("circulation")))


def _cmd_check(args) -> int:
    return _run_feasibility(args, want_matrix=False)


def _cmd_solve(args) -> int:
    return _run_feasibility(args, want_matrix=True)


def _run_feasibility(args, want_matrix: bool) -> int:
    inst = instance_from_json(_load_json(args.instance))
    info: dict = {}
    t0 = time.perf_counter()
    if args.prescribe:
        raw = _load_arg(args.prescribe)
        assignments = [(c[0], c[1], c[2]) for c in raw]
        from .feasibility import Prescription

        result = solve_with_prescription(
            inst, Prescription.create(inst.m, inst.n, assignments), info
        )
    else:
        result = solve(inst, info)
    wall = time.perf_counter() - t0
    _maybe_dump_dot(args, info)
    doc: dict = {"status": "feasible" if result.is_feasible else "infeasible"}
    if result.is_feasible:
        if want_matrix:
            doc["matrix"] = result.matrix.to_lists()
        summary = "feasible"
    else:
        doc["certificate"] = _certificate_json(result.certificate)
        cert = result.certificate
        summary = f"infeasible: {cert.violated} violated ({cert.lhs} > {cert.rhs})"
    doc["diagnostics"] = _diagnostics(info, wall)
    if args.oracle:
        if args.prescribe:
            print("error: --oracle does not support --prescribe", file=sys.stderr)
            return EXIT_ERROR
        matrices = oracle.enumerate_pbms(inst)
        agrees = (len(matrices) > 0) == result.is_feasible
        if result.is_feasible and result.matrix not in matrices:
            agrees = False
        doc["oracle"] = {"count": len(matrices), "agrees": agrees}
        if not agrees:
            _emit(doc, "oracle disagrees with solver")
            return EXIT_ERROR
    _emit(doc, summary)
    return EXIT_OK if result.is_feasible else EXIT_INFEASIBLE


def _cmd_sum(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    direction = "max" if args.max else "min"
    info: dict = {}
    t0 = time.perf_counter()
    result = extremal_total_sum(inst, direction, info)
    wall = time.perf_counter() - t0
    doc: dict = {"status": result.status, "direction": direction}
    if result.status == "optimal":
        doc["value"] = result.value
        doc["matrix"] = result.matrix.to_lists()
        summary = f"optimal: {direction} total = {result.value}"
    elif result.status == "infeasible":
        doc["certificate"] = _certificate_json(result.certificate)
        summary = "infeasible"
    else:
        summary = f"unbounded in direction {direction}"
    doc["diagnostics"] = _diagnostics(info, wall)
    if args.oracle:
        lo, hi = oracle.oracle_extremal_sums(inst)
        want = hi if direction == "max" else lo
        got = {
            "optimal": lambda: want.is_finite and want.value == result.value,
            "unbounded": lambda: not want.is_finite,
            "infeasible": lambda: (hi < lo),
        }[result.status]()
        doc["oracle"] = {
            "min": lo.to_json(),
            "max": hi.to_json(),
            "agrees": got,
        }
        if not got:
            _emit(doc, "oracle disagrees with solver")
            return EXIT_ERROR
    _emit(doc, summary)
    return {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "unbounded": EXIT_UNBOUNDED}[
        result.status
    ]


def _cmd_cost(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    costs = matrix_from_json(_load_json(args.costs))
    direction = "max" if args.max else "min"
    info: dict = {}
    t0 = time.perf_counter()
    result = optimize_cost(inst, costs, direction, info)
    wall = time.perf_counter() - t0
    doc: dict = {"status": result.status, "direction": direction}
    if result.status == "optimal":
        doc["value"] = result.value
        doc["matrix"] = result.matrix.to_lists()
        summary = f"optimal: {direction} cost = {result.value}"
    elif result.status == "infeasible":
        doc["certificate"] = _certificate_json(result.certificate)
        summary = "infeasible"
    else:
        summary = f"unbounded in direction {direction}"
    doc["diagnostics"] = _diagnostics(info, wall)
    if args.oracle:
        matrices = oracle.enumerate_pbms(inst)
        if not matrices:
            agrees = result.status == "infeasible"
            doc["oracle"] = {"count": 0, "agrees": agrees}
        else:
            values = [
                sum(costs.at(i, j) * mat.at(i, j) for i, j, _ in mat.cells())
                for mat in matrices
            ]
            want = max(values) if direction == "max" else min(values)
            agrees = result.status == "optimal" and result.value == want
            doc["oracle"] = {"count": len(matrices), "value": want, "agrees": agrees}
        if not agrees:
            _emit(doc, "oracle disagrees with solver")
            return EXIT_ERROR
    _emit(doc, summary)
    return {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "unbounded": EXIT_UNBOUNDED}[
        result.status
    ]


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
    _emit(doc, f"decomposed into {len(dec.parts)} distinct parts")
    return EXIT_OK


def _asm_allows(labels, mat: IntMatrix) -> bool:
    allowed = {"0": (0,), "+1": (1,), "-1": (-1,), "+": (0, 1), "-": (-1, 0), "F": (-1, 0, 1)}
    return all(
        v in allowed[labels[i - 1][j - 1]] for i, j, v in mat.cells()
    )


def _cmd_asm(args) -> int:
    if args.compatible:
        labels = _load_arg(args.compatible)
        part = asmkit.SPartition.from_labels(labels)
        result = asmkit.compatible_asm(part)
        doc: dict = {"status": "feasible" if result.is_feasible else "infeasible", "n": part.n}
        if result.is_feasible:
            doc["matrix"] = result.matrix.to_lists()
            summary = "feasible"
        else:
            doc["certificate"] = _certificate_json(result.certificate)
            doc["family"] = _family_json(result.family)
            summary = (
                f"infeasible: {result.family.size} segments found, "
                f"{result.family.required} required"
            )
        if args.oracle:
            census = oracle.enumerate_asms(part.n)
            compatible = [mtx for mtx in census if _asm_allows(labels, mtx)]
            agrees = bool(compatible) == result.is_feasible
            if result.is_feasible and result.matrix not in compatible:
                agrees = False
            doc["oracle"] = {"count": len(compatible), "agrees": agrees}
            if not agrees:
                _emit(doc, "oracle disagrees with solver")
                return EXIT_ERROR
        _emit(doc, summary)
        return EXIT_OK if result.is_feasible else EXIT_INFEASIBLE
    if args.n is None:
        print("error: give an order n or --compatible", file=sys.stderr)
        return EXIT_ERROR
    inst = asmkit.asm_instance(args.n)
    result = solve(inst)
    doc = {"status": "feasible", "n": args.n, "matrix": result.matrix.to_lists()}
    if args.oracle:
        census = oracle.enumerate_asms(args.n)
        agrees = result.matrix in census
        doc["oracle"] = {"count": len(census), "agrees": agrees}
        if not agrees:
            _emit(doc, "oracle disagrees with solver")
            return EXIT_ERROR
    _emit(doc, "feasible")
    return EXIT_OK


def _cmd_subordinate(args) -> int:
    x = matrix_from_json(_load_json(args.matrix))
    if args.maximize:
        result = asmkit.max_plus_ones_subordinate(x)
    else:
        result = asmkit.subordinate_asm(x)
    doc: dict = {"status": "feasible" if result.is_feasible else "infeasible"}
    if result.is_feasible:
        doc["matrix"] = result.matrix.to_lists()
        if args.maximize:
            doc["plus_ones_kept"] = result.count
            summary = f"feasible: kept {result.count} of the +1 entries"
        else:
            summary = "feasible"
    else:
        doc["certificate"] = _certificate_json(result.certificate)
        doc["family"] = _family_json(result.family)
        summary = (
            f"infeasible: {result.family.size} segments found, "
            f"{result.family.required} required"
        )
    if args.oracle:
        subs = oracle.enumerate_subordinates(x)
        agrees = bool(subs) == result.is_feasible
        if result.is_feasible and args.maximize:
            best = max(sum(1 for _, _, v in s.cells() if v == 1) for s in subs) if subs else None
            agrees = agrees and best == result.count
            doc["oracle"] = {"count": len(subs), "best": best, "agrees": agrees}
        else:
            doc["oracle"] = {"count": len(subs), "agrees": agrees}
        if not agrees:
            _emit(doc, "oracle disagrees with solver")
            return EXIT_ERROR
    _emit(doc, summary)
    return EXIT_OK if result.is_feasible else EXIT_INFEASIBLE


def _cmd_wasm(args) -> int:
    patterns = _load_json(args.patterns)
    rows, cols = patterns["rows"], patterns["cols"]
    inst = asmkit.wasm_instance(rows, cols)
    result = solve(inst)
    doc: dict = {"status": "feasible" if result.is_feasible else "infeasible"}
    if result.is_feasible:
        doc["matrix"] = result.matrix.to_lists()
        summary = "feasible"
    else:
        doc["certificate"] = _certificate_json(result.certificate)
        summary = "infeasible"
    if args.oracle:
        m, n = len(rows), len(cols)
        if m * n > 12:
            print("error: --oracle supports at most 12 cells here", file=sys.stderr)
            return EXIT_ERROR
        from itertools import product as iproduct

        found = None
        for combo in iproduct((-1, 0, 1), repeat=m * n):
            cand = IntMatrix(
                m, n, tuple(tuple(combo[r * n + c] for c in range(n)) for r in range(m))
            )
            if oracle.is_wasm(cand, rows, cols):
                found = cand
                break
        agrees = (found is not None) == result.is_feasible
        doc["oracle"] = {"agrees": agrees}
        if not agrees:
            _emit(doc, "oracle disagrees with solver")
            return EXIT_ERROR
    _emit(doc, summary)
    return EXIT_OK if result.is_feasible else EXIT_INFEASIBLE


def _cmd_eval(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    mask = mask_from_json(inst.m, inst.n, _load_arg(args.subset))
    ev = eval_strong_pair(inst, mask)
    doc: dict = {
        "p1": ev.p1.to_json(),
        "b1": ev.b1.to_json(),
        "p2": ev.p2.to_json(),
        "b2": ev.b2.to_json(),
    }
    if args.subset2:
        mask2 = mask_from_json(inst.m, inst.n, _load_arg(args.subset2))
        from .strongpair import condition_values

        cond = condition_values(inst, mask, mask2)
        doc["condition"] = {
            rec.name: {"lhs": rec.lhs.to_json(), "rhs": rec.rhs.to_json(), "holds": rec.holds}
            for rec in cond.records()
        }
        doc["all_hold"] = cond.all_hold
    if args.oracle:
        h = oracle.line_polytope_minmax(inst, mask, "horizontal")
        v = oracle.line_polytope_minmax(inst, mask, "vertical")
        agrees = (
            ev.p1 == h[0] and ev.b1 == h[1] and ev.p2 == v[0] and ev.b2 == v[1]
        )
        doc["oracle"] = {
            "horizontal": list(h),
            "vertical": list(v),
            "agrees": agrees,
        }
        if not agrees:
            _emit(doc, "oracle disagrees with evaluation")
            return EXIT_ERROR
    strict = check_strict(inst)
    doc["strict"] = strict.is_strict
    if strict.is_strict:
        doc["common_sum"] = strict.common_sum
    _emit(doc, f"p1={ev.p1} b1={ev.b1} p2={ev.p2} b2={ev.b2}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst = instance_from_json(_load_json(args.instance))
    budget = oracle.EnumerationBudget(
        max_cells=args.max_cells, max_range_width=args.max_width, max_nodes=args.max_nodes
    )
    matrices = oracle.enumerate_pbms(inst, budget)
    doc = {"count": len(matrices), "matrices": [mtx.to_lists() for mtx in matrices]}
    _emit(doc, f"{len(matrices)} matrices")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_oracle(p):
        p.add_argument(
            "--oracle", action="store_true", help="cross-check against the brute-force oracle"
        )

    p = sub.add_parser("check", help="decide feasibility of an instance")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.add_argument("--prescribe", help="JSON [[i,j,value],...] of pinned entries (or @file)")
    p.add_argument("--dump-dot", metavar="PATH", help="write the network in DOT form")
    add_oracle(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="find a matrix meeting all bounds")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except PbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyError as exc:
        print(f"error: missing key {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
