#!/usr/bin/env python3
"""Census of the special matrix classes by exhaustive enumeration.

Counts feasible matrices of every family's instances (asm, k-regular,
pasm, higher-spin, aval-sign, Brualdi-Dahl, sum-majorized, wasm) for small
orders, with wall times, and checks each matrix against the class's direct
definition.  The ASM column should read 1, 2, 7, 42, ...  Exits 1 when a
matrix fails its definition or an ASM count is wrong.

The package is imported from the ``src/`` directory next to this script,
so a checkout counts with its own code without an install.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pbm.asmkit import (  # noqa: E402
    asm_instance,
    aval_sign_instance,
    brualdi_dahl_instance,
    higher_spin_instance,
    k_regular_instance,
    pasm_instance,
    sum_majorized_instance,
    wasm_instance,
)
from pbm import oracle  # noqa: E402
from pbm.core import IntMatrix  # noqa: E402


def asm_count(n: int) -> int:
    """The number of n x n ASMs, prod over k < n of (3k+1)! / (n+k)! (Zeilberger)."""
    num = den = 1
    for k in range(n):
        num *= factorial(3 * k + 1)
        den *= factorial(n + k)
    return num // den


def census(label: str, inst, predicate, budget, want: "int | None" = None) -> bool:
    """Print one census line; True when every matrix passes and the count is as wanted."""
    t0 = time.perf_counter()
    mats = oracle.enumerate_pbms(inst, budget)
    dt = time.perf_counter() - t0
    bad = sum(1 for mt in mats if not predicate(mt))
    flag = "" if bad == 0 else f"  <-- {bad} FAILED the direct definition"
    if want is not None and len(mats) != want:
        flag += f"  <-- expected {want} matrices"
    print(f"{label:24s} {len(mats):6d} matrices  {dt * 1000:8.1f} ms{flag}")
    return not flag


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4, help="largest order to enumerate")
    args = parser.parse_args()

    budget = oracle.EnumerationBudget(
        max_cells=args.max_n * args.max_n, max_range_width=9, max_nodes=10**9
    )
    ok = True
    for n in range(1, args.max_n + 1):
        ok &= census(f"asm({n})", asm_instance(n), oracle.is_asm, budget, asm_count(n))
    for n, k in [(2, 2), (3, 2), (3, 3)]:
        if n <= args.max_n:
            ok &= census(
                f"k_regular({n},{k})",
                k_regular_instance(n, k),
                lambda mt, k=k: oracle.is_k_regular_asm(mt, k),
                budget,
            )
    for m, n in [(2, 2), (2, 3)]:
        if max(m, n) <= args.max_n:
            ok &= census(f"pasm({m},{n})", pasm_instance(m, n), oracle.is_pasm, budget)
    for n, r in [(2, 2), (3, 2)]:
        if n <= args.max_n:
            ok &= census(
                f"higher_spin({n},{r})",
                higher_spin_instance(n, r),
                lambda mt, r=r: oracle.is_higher_spin(mt, r),
                budget,
            )
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        if max(m, n) <= args.max_n:
            ok &= census(
                f"aval_sign({m},{n})", aval_sign_instance(m, n), oracle.is_aval_sign, budget
            )
    for r, s in [([1, 2], [2, 1]), ([1, 2, 0], [1, 1, 1]), ([2, 1, 2], [1, 2, 2])]:
        if max(len(r), len(s)) <= args.max_n:
            ok &= census(
                f"brualdi_dahl({r},{s})",
                brualdi_dahl_instance(r, s),
                lambda mt, r=r, s=s: oracle.is_brualdi_dahl(mt, r, s),
                budget,
            )
    for rows in [[[1, 2], [2, 3]], [[1, 1, 2], [1, 1, 3]], [[1, 2, 2], [2, 3, 3], [2, 3, 4]]]:
        b = IntMatrix.from_rows(rows)
        if max(b.m, b.n) <= args.max_n:
            ok &= census(
                f"sum_majorized({rows})",
                sum_majorized_instance(b),
                lambda mt, b=b: oracle.is_sum_majorized(mt, b),
                budget,
            )
    for rows, cols in [(["++", "+-"], ["+-", "++"]), (["+-", "-+", "++"], ["++", "-+", "+-"])]:
        if max(len(rows), len(cols)) <= args.max_n:
            ok &= census(
                f"wasm({''.join(rows)},{''.join(cols)})",
                wasm_instance(rows, cols),
                lambda mt, rows=rows, cols=cols: oracle.is_wasm(mt, rows, cols),
                budget,
            )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
