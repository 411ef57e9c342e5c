"""Shared random-instance generators and matrix readings for the test suite.

Three flavors:

* random_instance: independent windows, mostly infeasible (good for
  certificate coverage);
* feasible_random: windows widened around the prefix sums of a hidden
  matrix, feasible by construction;
* finite_random: like random_instance but every bound finite, so the
  per-orientation enumeration oracles apply.

``open_last_entry`` opens a path through an instance so that its total
sum is unbounded in one direction, and ``open_instance`` leaves every
bound infinite.

``line_values`` reads a matrix's arc values off the definitions, without
the library's circulation code.  ``scaled_instance`` multiplies an
instance's bounds by k, and ``shrink_instance`` divides them by k as the
decomposition theorem states them.
"""

from __future__ import annotations

import dataclasses
import random
from itertools import accumulate
from operator import add

from pbm.core import NEG_INF, POS_INF, ExtInt, IntMatrix, PbmInstance, fin


def random_instance(rng: random.Random, m: int, n: int, inf_rate: float = 0.25) -> PbmInstance:
    def window():
        lo = NEG_INF if rng.random() < inf_rate else fin(rng.randint(-3, 3))
        base = lo.value if lo.is_finite else -3
        hi = POS_INF if rng.random() < inf_rate else fin(rng.randint(max(base, -3), 3))
        return lo, hi

    phi1, gamma1, phi2, gamma2, f, g = ([[None] * n for _ in range(m)] for _ in range(6))
    for i in range(m):
        for j in range(n):
            phi1[i][j], gamma1[i][j] = window()
            phi2[i][j], gamma2[i][j] = window()
            a = rng.randint(-2, 2)
            f[i][j], g[i][j] = fin(a), fin(rng.randint(a, 2))
    alpha = NEG_INF if rng.random() < 0.6 else fin(rng.randint(-6, 6))
    hi_floor = alpha.value if alpha.is_finite else -6
    beta = POS_INF if rng.random() < 0.6 else fin(rng.randint(hi_floor, 8))
    return PbmInstance.create(m, n, phi1, gamma1, phi2, gamma2, f, g, alpha, beta)


def feasible_random(
    rng: random.Random, m: int, n: int, inf_rate: float = 0.3, entry_inf_rate: float = 0.0
) -> PbmInstance:
    """``entry_inf_rate`` > 0 also opens entry windows, so optima can be unbounded."""

    def entry_bound(value: int, open_side):
        if entry_inf_rate and rng.random() < entry_inf_rate:
            return open_side
        return fin(value)

    hidden = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
    row_prefixes = [list(accumulate(row)) for row in hidden]
    col_prefixes = list(accumulate(hidden, lambda above, row: [*map(add, above, row)]))
    phi1, gamma1, phi2, gamma2, f, g = ([[None] * n for _ in range(m)] for _ in range(6))
    for i in range(m):
        for j in range(n):
            h = row_prefixes[i][j]
            v = col_prefixes[i][j]
            phi1[i][j] = NEG_INF if rng.random() < inf_rate else fin(h - rng.randint(0, 2))
            gamma1[i][j] = POS_INF if rng.random() < inf_rate else fin(h + rng.randint(0, 2))
            phi2[i][j] = NEG_INF if rng.random() < inf_rate else fin(v - rng.randint(0, 2))
            gamma2[i][j] = POS_INF if rng.random() < inf_rate else fin(v + rng.randint(0, 2))
            f[i][j] = entry_bound(hidden[i][j] - rng.randint(0, 1), NEG_INF)
            g[i][j] = entry_bound(hidden[i][j] + rng.randint(0, 1), POS_INF)
    return PbmInstance.create(m, n, phi1, gamma1, phi2, gamma2, f, g)


def finite_random(rng: random.Random, m: int, n: int) -> PbmInstance:
    phi1, gamma1, phi2, gamma2, f, g = ([[None] * n for _ in range(m)] for _ in range(6))
    for i in range(m):
        for j in range(n):
            a = rng.randint(-3, 2)
            phi1[i][j], gamma1[i][j] = fin(a), fin(rng.randint(a, 3))
            a = rng.randint(-3, 2)
            phi2[i][j], gamma2[i][j] = fin(a), fin(rng.randint(a, 3))
            a = rng.randint(-2, 1)
            f[i][j], g[i][j] = fin(a), fin(rng.randint(a, 2))
    return PbmInstance.create(m, n, phi1, gamma1, phi2, gamma2, f, g)


def open_last_entry(rng: random.Random, inst: PbmInstance, direction: str) -> PbmInstance:
    """Open entry (i, n), its row prefix and the column below it in ``direction``.

    The total sum then grows (or falls) without limit along that path.
    """
    m, n = inst.m, inst.n
    i = rng.randint(1, m)
    if direction == "max":
        row_key, col_key, entry_key, bound = "gamma1", "gamma2", "g", POS_INF
    else:
        row_key, col_key, entry_key, bound = "phi1", "phi2", "f", NEG_INF
    rows = {key: [list(r) for r in getattr(inst, key).rows] for key in (row_key, col_key, entry_key)}
    rows[row_key][i - 1][n - 1] = bound
    rows[entry_key][i - 1][n - 1] = bound
    for r in range(i, m + 1):
        rows[col_key][r - 1][n - 1] = bound
    return dataclasses.replace(
        inst, **{key: getattr(inst, key).from_rows(v) for key, v in rows.items()}
    )


def open_instance(m: int, n: int) -> PbmInstance:
    """Every bound infinite: any integer matrix meets it."""
    lows, highs = [[NEG_INF] * n for _ in range(m)], [[POS_INF] * n for _ in range(m)]
    return PbmInstance.create(m, n, lows, highs, lows, highs, lows, highs)


def line_values(mat: IntMatrix) -> list[int]:
    """Entries, row prefix sums, column prefix sums and total of a matrix."""
    rows = mat.to_lists()
    entries = [v for row in rows for v in row]
    row_prefixes = [sum(row[:j]) for row in rows for j in range(1, mat.n + 1)]
    col_prefixes = [
        sum(rows[r][j] for r in range(i)) for i in range(1, mat.m + 1) for j in range(mat.n)
    ]
    return entries + row_prefixes + col_prefixes + [sum(entries)]


def _map_bounds(inst: PbmInstance, low, high) -> PbmInstance:
    """``inst`` with ``low`` applied to the value of every lower bound and ``high`` to every upper one.

    Tags pass through, and both maps send 0 to 0, so an infinite cell keeps
    its value 0 and stays infinite on its own side.
    """
    def mapped(name: str, op):
        bound = getattr(inst, name)
        if isinstance(bound, ExtInt):
            return dataclasses.replace(bound, value=op(bound.value))
        return dataclasses.replace(bound, values=tuple(map(op, bound.values)))

    lows = {name: mapped(name, low) for name in ("phi1", "phi2", "f", "alpha")}
    highs = {name: mapped(name, high) for name in ("gamma1", "gamma2", "g", "beta")}
    return dataclasses.replace(inst, **lows, **highs)


def scaled_instance(inst: PbmInstance, k: int) -> PbmInstance:
    """Every finite bound of ``inst`` times k >= 1."""
    return _map_bounds(inst, lambda v: v * k, lambda v: v * k)


def shrink_instance(inst: PbmInstance, k: int) -> PbmInstance:
    """The instance shrunk by k >= 1: lower bounds divided by k and floored, upper ones ceiled.

    Every part of a decomposition into k parts meets it.
    """
    return _map_bounds(inst, lambda v: v // k, lambda v: -(-v // k))
