#!/usr/bin/env python3
"""Stress the solver against the enumeration oracle on random instances.

Draws random instances with the test suite's generators in
tests/helpers.py (independent windows by default, or windows widened
around a hidden matrix with --feasible-bias), solves each, enumerates the
full feasible set, and checks that the verdicts and any produced matrix
agree.  It also minimizes a random cost matrix over each instance and
checks the optimum against the cheapest enumerated matrix; the costs come
from a generator of their own, so the instances are the same as without
this check.  It also pins 0-2 cells of each instance to values within
their entry bounds, from a generator of its own as well, solves the
pinned instance, and checks it against the enumerated matrices that keep
every pin.  With --feasible-bias, each instance also gets a variant
whose total window ends one below the least enumerated total: every line
of it can be completed, so the solve finds its cut by flow, and it must
be infeasible.  Every certificate's named inequality, for the instance,
its pinned form or its capped variant, is evaluated again from the
oracle's per-bitmask tables, which must give the emitted lhs and rhs
with lhs > rhs.  The
strong pair p1, b1, p2, b2 of one random cell subset per instance, drawn
from a generator of its own, must equal the oracle's tables too.  Each
feasible instance's matrix is decomposed for one k in 1..8 and one k
above 10^6, each k from a generator of its own; every distinct part must
meet the shrunk instance and lie within A/k rounded down and up, and the
parts, weighted by multiplicity, must add up to A.  Prints a running
tally and per-verdict timing.

The package is imported from the ``src/`` directory next to this script,
so a checkout tests its own code without an install.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import sys
import time
from itertools import chain
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from pbm.core import IntMatrix, fin  # noqa: E402
from pbm.decompose import decompose  # noqa: E402
from pbm.feasibility import optimize_cost, pin_entries, solve  # noqa: E402
from pbm.strongpair import eval_strong_pair  # noqa: E402
from pbm import oracle  # noqa: E402
from helpers import feasible_random, line_values, random_instance, shrink_instance  # noqa: E402


def decomposition_fault(inst, a: IntMatrix, k: int) -> "str | None":
    """What is wrong with ``decompose(inst, a, k)``, or None.

    Each distinct part is checked once and counted by its multiplicity, so
    the check takes the same time for any k.
    """
    dec = decompose(inst, a, k)
    if sum(mult for _, mult in dec.parts) != k:
        return f"the multiplicities do not add up to {k}"
    small = shrink_instance(inst, k)
    whole = line_values(a)
    total = [0] * (a.m * a.n)
    for part, mult in dec.parts:
        if not oracle.matrix_satisfies(small, part):
            return f"part {part.to_lists()} misses the instance shrunk by {k}"
        if any(not w // k <= p <= -(-w // k) for w, p in zip(whole, line_values(part))):
            return f"part {part.to_lists()} is not within A/{k} rounded down and up"
        total = [t + mult * v for t, v in zip(total, chain(*part.rows))]
    if total != [*chain(*a.rows)]:
        return "the parts do not add up to the matrix"
    return None


def certificate_fault(tables: oracle._PairTables, cert) -> "str | None":
    """What is wrong with a certificate, judged by the instance's ``oracle._PairTables``, or None."""
    inst = tables.inst
    x1, x2 = (sum(1 << k for k in x.cells) for x in (cert.x1, cert.x2))
    values = {name: (lhs, rhs) for name, lhs, rhs in tables.pair_values(x1, x2)}
    lhs, rhs = values[cert.violated]
    if (lhs, rhs) != (cert.lhs, cert.rhs):
        return (
            f"{cert.violated} has lhs {lhs}, rhs {rhs} in the oracle's tables, "
            f"but the certificate says lhs {cert.lhs}, rhs {cert.rhs}"
        )
    if not lhs > rhs:
        return f"{cert.violated} holds: {lhs} <= {rhs}"
    return None


def strong_pair_fault(tables: oracle._PairTables, bits: int) -> "str | None":
    """How ``eval_strong_pair`` on the subset with these row-major bits differs from the tables, or None."""
    ev = eval_strong_pair(tables.inst, tables.mask_to_subset(bits))
    got = (ev.p1, ev.b1, ev.p2, ev.b2)
    want = (tables.p1[bits], tables.b1[bits], tables.p2[bits], tables.b2[bits])
    if got != want:
        return f"subset bits {bits:b}: p1, b1, p2, b2 are {got}, the oracle's tables say {want}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500, help="instances to test")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-dim", type=int, default=3, help="rows/cols drawn from 1..max-dim")
    parser.add_argument("--inf-rate", type=float, default=0.25, help="chance a window side is infinite")
    parser.add_argument(
        "--feasible-bias",
        action="store_true",
        help="widen windows around a hidden matrix instead of drawing them independently",
    )
    args = parser.parse_args()
    # a max-dim x max-dim instance must fit the oracle's enumeration budget
    top = math.isqrt(oracle.DEFAULT_BUDGET.max_cells)
    if not 1 <= args.max_dim <= top:
        parser.error(
            f"--max-dim must be in 1..{top}: the oracle enumerates at most "
            f"oracle.DEFAULT_BUDGET.max_cells = {oracle.DEFAULT_BUDGET.max_cells} cells"
        )

    rng = random.Random(args.seed)
    cost_rng = random.Random(f"costs:{args.seed}")
    k_rng = random.Random(f"k:{args.seed}")
    big_k_rng = random.Random(f"big k:{args.seed}")
    pin_rng = random.Random(f"pins:{args.seed}")
    subset_rng = random.Random(f"subset:{args.seed}")
    feasible = infeasible = completed = capped = 0
    t_solve = t_cost = t_oracle = t_decompose = 0.0
    for trial in range(args.count):
        m, n = rng.randint(1, args.max_dim), rng.randint(1, args.max_dim)
        make = feasible_random if args.feasible_bias else random_instance
        inst = make(rng, m, n, args.inf_rate)

        t0 = time.perf_counter()
        res = solve(inst)
        t_solve += time.perf_counter() - t0

        costs = IntMatrix.from_rows(
            [[cost_rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        )
        t0 = time.perf_counter()
        best = optimize_cost(inst, costs)
        t_cost += time.perf_counter() - t0

        t0 = time.perf_counter()
        mats = oracle.enumerate_pbms(inst)
        t_oracle += time.perf_counter() - t0

        tables = oracle._PairTables(inst)
        fault = strong_pair_fault(tables, subset_rng.randrange(1 << (m * n)))
        if fault:
            print(f"BAD STRONG PAIR at trial {trial}: {fault}")
            return 1

        # the entry windows are finite, so a feasible instance has a cheapest matrix
        values = [sum(c * mat.at(i, j) for i, j, c in costs.cells()) for mat in mats]
        want = min(values, default=None)
        got = best.value if best.status == "optimal" else best.status
        if got != ("infeasible" if want is None else want):
            print(f"DISAGREEMENT at trial {trial}: cost optimum {got}, oracle {want}")
            return 1

        cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        pins = [
            (i, j, pin_rng.randint(inst.f.at(i, j).value, inst.g.at(i, j).value))
            for i, j in pin_rng.sample(cells, min(pin_rng.randint(0, 2), len(cells)))
        ]
        pinned = pin_entries(inst, pins)
        t0 = time.perf_counter()
        pinned_res = solve(pinned)
        t_solve += time.perf_counter() - t0
        kept = [mat for mat in mats if all(mat.at(i, j) == v for i, j, v in pins)]
        if pinned_res.is_feasible != bool(kept) or (
            pinned_res.is_feasible and pinned_res.matrix not in kept
        ):
            print(f"DISAGREEMENT at trial {trial}: pins {pins}, {len(kept)} completions")
            return 1
        if pinned_res.is_feasible:
            completed += 1
        else:
            fault = certificate_fault(oracle._PairTables(pinned), pinned_res.certificate)
            if fault:
                print(f"BAD CERTIFICATE at trial {trial} with pins {pins}: {fault}")
                return 1

        if res.is_feasible != bool(mats):
            print(f"DISAGREEMENT at trial {trial}: solver={res.is_feasible} oracle={len(mats)}")
            return 1
        if args.feasible_bias:
            least = min(sum(chain(*mat.rows)) for mat in mats)
            variant = dataclasses.replace(inst, beta=fin(least - 1))
            t0 = time.perf_counter()
            variant_res = solve(variant)
            t_solve += time.perf_counter() - t0
            if variant_res.is_feasible:
                print(f"DISAGREEMENT at trial {trial}: feasible with the total capped at {least - 1}")
                return 1
            fault = certificate_fault(oracle._PairTables(variant), variant_res.certificate)
            if fault:
                print(f"BAD CERTIFICATE at trial {trial} with the total capped at {least - 1}: {fault}")
                return 1
            capped += 1
        if res.is_feasible:
            if res.matrix not in mats:
                print(f"DISAGREEMENT at trial {trial}: solver matrix not in oracle list")
                return 1
            t0 = time.perf_counter()
            for k in (k_rng.randint(1, 8), big_k_rng.randint(10**6 + 1, 2**40)):
                fault = decomposition_fault(inst, res.matrix, k)
                if fault:
                    break
            t_decompose += time.perf_counter() - t0
            if fault:
                print(f"BAD DECOMPOSITION at trial {trial}, k = {k}: {fault}")
                return 1
            feasible += 1
        else:
            fault = certificate_fault(tables, res.certificate)
            if fault:
                print(f"BAD CERTIFICATE at trial {trial}: {fault}")
                return 1
            infeasible += 1
        if (trial + 1) % 100 == 0:
            print(f"  {trial + 1}/{args.count} checked...", file=sys.stderr)

    print(
        f"{args.count} instances agree: {feasible} feasible, {infeasible} infeasible; "
        f"{completed} with their pins completed; {capped} capped totals refuted\n"
        f"solver {t_solve:.2f}s total, cost optimum {t_cost:.2f}s total, "
        f"decompose {t_decompose:.2f}s total, oracle {t_oracle:.2f}s total"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
