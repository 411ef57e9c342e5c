"""Independent brute-force oracles for cross-checking the solver.

Everything here works from the definitions alone: subsets are bitmasks,
matrices are enumerated cell by cell, and the inequality evaluations are
coded from scratch.  This module deliberately shares no code with the
solver beyond the core data types, so an agreement between the two is
meaningful evidence of correctness.

All enumerations are budgeted; exceeding a budget raises BudgetExceeded
rather than silently truncating.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .core import ExtInt, IntMatrix, PbmInstance, SubsetMask, fin
from .errors import BadEntries, BudgetExceeded, DimensionMismatch

__all__ = [
    "EnumerationBudget",
    "DEFAULT_BUDGET",
    "matrix_satisfies",
    "enumerate_pbms",
    "enumerate_pbms_noprune",
    "PairWorst",
    "BruteForceReport",
    "brute_force_condition",
    "oracle_extremal_sums",
    "line_polytope_minmax",
    "enumerate_subordinates",
    "enumerate_asms",
    "is_asm",
    "is_k_regular_asm",
    "is_pasm",
    "is_higher_spin",
    "is_aval_sign",
    "is_brualdi_dahl",
    "is_sum_majorized",
    "is_wasm",
]


@dataclass(frozen=True, slots=True)
class EnumerationBudget:
    """Limits for the exhaustive searches."""

    max_cells: int = 9
    max_range_width: int = 5
    max_nodes: int = 100_000_000


DEFAULT_BUDGET = EnumerationBudget()


def matrix_satisfies(inst: PbmInstance, mat: IntMatrix) -> bool:
    """Definitional check of every instance constraint; no solver involved."""
    if (mat.m, mat.n) != (inst.m, inst.n):
        return False
    for i in range(1, inst.m + 1):
        s = 0
        for j in range(1, inst.n + 1):
            v = mat.at(i, j)
            if not (inst.f.at(i, j) <= fin(v) <= inst.g.at(i, j)):
                return False
            s += v
            if not (inst.phi1.at(i, j) <= fin(s) <= inst.gamma1.at(i, j)):
                return False
    for j in range(1, inst.n + 1):
        s = 0
        for i in range(1, inst.m + 1):
            s += mat.at(i, j)
            if not (inst.phi2.at(i, j) <= fin(s) <= inst.gamma2.at(i, j)):
                return False
    return inst.alpha <= fin(mat.total()) <= inst.beta


def _entry_ranges(
    inst: PbmInstance, budget: EnumerationBudget
) -> "tuple[list[list[int]], list[list[int]]] | None":
    """Finite per-cell value ranges implied by neighboring windows.

    Returns None when some cell has an empty range (instance infeasible);
    raises BudgetExceeded when a range is infinite or too wide.
    """
    los: list[list[int]] = []
    his: list[list[int]] = []
    zero = fin(0)
    for i in range(1, inst.m + 1):
        lo_row: list[int] = []
        hi_row: list[int] = []
        for j in range(1, inst.n + 1):
            g1_prev = inst.gamma1.at(i, j - 1) if j > 1 else zero
            p1_prev = inst.phi1.at(i, j - 1) if j > 1 else zero
            g2_prev = inst.gamma2.at(i - 1, j) if i > 1 else zero
            p2_prev = inst.phi2.at(i - 1, j) if i > 1 else zero
            lo = max(inst.f.at(i, j), inst.phi1.at(i, j) - g1_prev, inst.phi2.at(i, j) - g2_prev)
            hi = min(inst.g.at(i, j), inst.gamma1.at(i, j) - p1_prev, inst.gamma2.at(i, j) - p2_prev)
            if lo > hi:
                return None
            if not lo.is_finite or not hi.is_finite:
                raise BudgetExceeded(f"entry range at ({i},{j}) is unbounded")
            if hi.value - lo.value + 1 > budget.max_range_width:
                raise BudgetExceeded(
                    f"entry range at ({i},{j}) has width {hi.value - lo.value + 1}"
                )
            lo_row.append(lo.value)
            hi_row.append(hi.value)
        los.append(lo_row)
        his.append(hi_row)
    return los, his


def enumerate_pbms(
    inst: PbmInstance, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[IntMatrix]:
    """Every matrix meeting the instance, in lexicographic row-major order.

    Depth-first search over cells with window, completion-interval, and
    total-sum pruning; prunes never discard a feasible matrix because they
    only ever apply necessary conditions.
    """
    m, n = inst.m, inst.n
    if m * n > budget.max_cells:
        raise BudgetExceeded(f"{m * n} cells exceed the budget of {budget.max_cells}")
    ranges = _entry_ranges(inst, budget)
    if ranges is None:
        return []
    los, his = ranges
    order = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    suffix_lo = [0] * (len(order) + 1)
    suffix_hi = [0] * (len(order) + 1)
    for idx in range(len(order) - 1, -1, -1):
        i, j = order[idx]
        suffix_lo[idx] = suffix_lo[idx + 1] + los[i - 1][j - 1]
        suffix_hi[idx] = suffix_hi[idx + 1] + his[i - 1][j - 1]

    grid = [[0] * n for _ in range(m)]
    h_pre = [0] * (m + 1)
    v_pre = [0] * (n + 1)
    results: list[IntMatrix] = []
    nodes = 0

    def row_can_finish(i: int, j: int, prefix: int) -> bool:
        lo = hi = prefix
        for j2 in range(j + 1, n + 1):
            lo += los[i - 1][j2 - 1]
            hi += his[i - 1][j2 - 1]
            w_lo, w_hi = inst.phi1.at(i, j2), inst.gamma1.at(i, j2)
            if w_lo.is_finite and lo < w_lo.value:
                lo = w_lo.value
            if w_hi.is_finite and hi > w_hi.value:
                hi = w_hi.value
            if lo > hi:
                return False
        return True

    def col_can_finish(i: int, j: int, prefix: int) -> bool:
        lo = hi = prefix
        for i2 in range(i + 1, m + 1):
            lo += los[i2 - 1][j - 1]
            hi += his[i2 - 1][j - 1]
            w_lo, w_hi = inst.phi2.at(i2, j), inst.gamma2.at(i2, j)
            if w_lo.is_finite and lo < w_lo.value:
                lo = w_lo.value
            if w_hi.is_finite and hi > w_hi.value:
                hi = w_hi.value
            if lo > hi:
                return False
        return True

    def walk(idx: int, total: int) -> None:
        nonlocal nodes
        if idx == len(order):
            if inst.alpha <= fin(total) <= inst.beta:
                results.append(IntMatrix(m, n, tuple(tuple(r) for r in grid)))
            return
        i, j = order[idx]
        for v in range(los[i - 1][j - 1], his[i - 1][j - 1] + 1):
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceeded(f"search exceeded {budget.max_nodes} nodes")
            new_h = h_pre[i] + v
            if not (inst.phi1.at(i, j) <= fin(new_h) <= inst.gamma1.at(i, j)):
                continue
            new_v = v_pre[j] + v
            if not (inst.phi2.at(i, j) <= fin(new_v) <= inst.gamma2.at(i, j)):
                continue
            new_total = total + v
            rest_lo = new_total + suffix_lo[idx + 1]
            rest_hi = new_total + suffix_hi[idx + 1]
            if fin(rest_lo) > inst.beta or fin(rest_hi) < inst.alpha:
                continue
            if not row_can_finish(i, j, new_h) or not col_can_finish(i, j, new_v):
                continue
            grid[i - 1][j - 1] = v
            h_pre[i] = new_h
            v_pre[j] = new_v
            walk(idx + 1, new_total)
            h_pre[i] -= v
            v_pre[j] -= v
            grid[i - 1][j - 1] = 0
        return

    walk(0, 0)
    return results


def enumerate_pbms_noprune(
    inst: PbmInstance, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[IntMatrix]:
    """Plain product scan over the per-cell ranges; for testing the pruned walk."""
    m, n = inst.m, inst.n
    if m * n > budget.max_cells:
        raise BudgetExceeded(f"{m * n} cells exceed the budget of {budget.max_cells}")
    ranges = _entry_ranges(inst, budget)
    if ranges is None:
        return []
    los, his = ranges
    cells = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    out = []
    for combo in product(
        *[range(los[i - 1][j - 1], his[i - 1][j - 1] + 1) for (i, j) in cells]
    ):
        rows = tuple(tuple(combo[(i - 1) * n + (j - 1)] for j in range(1, n + 1)) for i in range(1, m + 1))
        mat = IntMatrix(m, n, rows)
        if matrix_satisfies(inst, mat):
            out.append(mat)
    return out


def _mask_runs(bits: int, length: int) -> list[tuple[int, int]]:
    """Maximal runs of set bits in a length-bit word, 1-based inclusive."""
    runs = []
    pos = 1
    while pos <= length:
        if bits >> (pos - 1) & 1:
            start = pos
            while pos + 1 <= length and bits >> pos & 1:
                pos += 1
            runs.append((start, pos))
        pos += 1
    return runs


class _PairTables:
    """Per-bitmask tables of the line bounds and entry-bound sums."""

    def __init__(self, inst: PbmInstance) -> None:
        self.inst = inst
        m, n = inst.m, inst.n
        self.m, self.n = m, n
        size = 1 << (m * n)
        zero = fin(0)

        def row_bits(mask: int, i: int) -> int:
            return mask >> ((i - 1) * n) & ((1 << n) - 1)

        def col_bits(mask: int, j: int) -> int:
            out = 0
            for i in range(1, m + 1):
                if mask >> ((i - 1) * n + (j - 1)) & 1:
                    out |= 1 << (i - 1)
            return out

        row_p: list[dict[int, ExtInt]] = [dict() for _ in range(m + 1)]
        row_b: list[dict[int, ExtInt]] = [dict() for _ in range(m + 1)]
        col_p: list[dict[int, ExtInt]] = [dict() for _ in range(n + 1)]
        col_b: list[dict[int, ExtInt]] = [dict() for _ in range(n + 1)]

        def line_eval(bits, length, phi, gamma):
            p = zero
            b = zero
            for h, k in _mask_runs(bits, length):
                gamma_prev = gamma[h - 2] if h >= 2 else zero
                phi_prev = phi[h - 2] if h >= 2 else zero
                p = p + (phi[k - 1] - gamma_prev)
                b = b + (gamma[k - 1] - phi_prev)
            return p, b

        self.p1 = [zero] * size
        self.b1 = [zero] * size
        self.p2 = [zero] * size
        self.b2 = [zero] * size
        self.fsum = [zero] * size
        self.gsum = [zero] * size
        flat_f = [inst.f.at(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        flat_g = [inst.g.at(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        for mask in range(1, size):
            low = mask & -mask
            bit = low.bit_length() - 1
            self.fsum[mask] = self.fsum[mask ^ low] + flat_f[bit]
            self.gsum[mask] = self.gsum[mask ^ low] + flat_g[bit]
        for mask in range(size):
            p1 = zero
            b1 = zero
            for i in range(1, m + 1):
                bits = row_bits(mask, i)
                if bits not in row_p[i]:
                    phi = [inst.phi1.at(i, j) for j in range(1, n + 1)]
                    gamma = [inst.gamma1.at(i, j) for j in range(1, n + 1)]
                    row_p[i][bits], row_b[i][bits] = line_eval(bits, n, phi, gamma)
                p1 = p1 + row_p[i][bits]
                b1 = b1 + row_b[i][bits]
            p2 = zero
            b2 = zero
            for j in range(1, n + 1):
                bits = col_bits(mask, j)
                if bits not in col_p[j]:
                    phi = [inst.phi2.at(i, j) for i in range(1, m + 1)]
                    gamma = [inst.gamma2.at(i, j) for i in range(1, m + 1)]
                    col_p[j][bits], col_b[j][bits] = line_eval(bits, m, phi, gamma)
                p2 = p2 + col_p[j][bits]
                b2 = b2 + col_b[j][bits]
            self.p1[mask], self.b1[mask] = p1, b1
            self.p2[mask], self.b2[mask] = p2, b2

    def mask_to_subset(self, mask: int) -> SubsetMask:
        """The subset whose row-major cell index k is set as bit k of ``mask``."""
        cells = frozenset(k for k in range(self.m * self.n) if mask >> k & 1)
        return SubsetMask(self.m, self.n, cells)

    def pair_values(self, x1: int, x2: int) -> list[tuple[str, ExtInt, ExtInt]]:
        """(name, lhs, rhs) of the four inequalities on a bitmask pair."""
        full = (1 << (self.m * self.n)) - 1
        only2 = x2 & ~x1
        only1 = x1 & ~x2
        both = x1 & x2
        neither = full & ~(x1 | x2)
        return [
            ("gen1a", self.p1[x1] + self.fsum[only2], self.b2[x2] + self.gsum[only1]),
            ("gen1b", self.p2[x2] + self.fsum[only1], self.b1[x1] + self.gsum[only2]),
            (
                "gen1alfa",
                self.inst.alpha,
                self.b1[x1] + self.b2[x2] + self.gsum[neither] - self.fsum[both],
            ),
            (
                "gen1beta",
                self.p1[x1] + self.p2[x2] + self.fsum[neither] - self.gsum[both],
                self.inst.beta,
            ),
        ]


@dataclass(frozen=True, slots=True)
class PairWorst:
    """The tightest subset pair found for one inequality."""

    name: str
    x1: SubsetMask
    x2: SubsetMask
    lhs: ExtInt
    rhs: ExtInt

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True, slots=True)
class BruteForceReport:
    """Worst pair per inequality; ``sampled`` marks an incomplete scan."""

    worst: tuple[PairWorst, ...]
    all_hold: bool
    sampled: bool

    def by_name(self, name: str) -> PairWorst:
        for w in self.worst:
            if w.name == name:
                return w
        raise KeyError(name)


def _pair_stream(cell_count: int, seed: int, samples: int) -> Iterable[tuple[int, int]]:
    size = 1 << cell_count
    rng = random.Random(seed)
    for _ in range(samples):
        yield rng.randrange(size), rng.randrange(size)


def brute_force_condition(
    inst: PbmInstance, seed: int = 0, samples: int = 200_000
) -> BruteForceReport:
    """Scan subset pairs for violations of the four inequalities.

    Scans all pairs up to 8 cells; between 9 and 12 cells it samples
    ``samples`` seeded random pairs; beyond that it refuses.
    """
    cell_count = inst.m * inst.n
    if cell_count > 12:
        raise BudgetExceeded(f"{cell_count} cells is beyond the pair-scan limit of 12")
    tables = _PairTables(inst)
    sampled = cell_count > 8
    if sampled:
        pairs: Iterable[tuple[int, int]] = _pair_stream(cell_count, seed, samples)
    else:
        size = 1 << cell_count
        pairs = ((x1, x2) for x1 in range(size) for x2 in range(size))
    worst: dict[str, tuple[ExtInt, int, int, ExtInt, ExtInt]] = {}
    for x1, x2 in pairs:
        for name, lhs, rhs in tables.pair_values(x1, x2):
            slack = rhs - lhs
            if name not in worst or slack < worst[name][0]:
                worst[name] = (slack, x1, x2, lhs, rhs)
    records = tuple(
        PairWorst(
            name=name,
            x1=tables.mask_to_subset(worst[name][1]),
            x2=tables.mask_to_subset(worst[name][2]),
            lhs=worst[name][3],
            rhs=worst[name][4],
        )
        for name in ("gen1a", "gen1b", "gen1alfa", "gen1beta")
    )
    return BruteForceReport(
        worst=records,
        all_hold=all(r.holds for r in records),
        sampled=sampled,
    )


def oracle_extremal_sums(inst: PbmInstance) -> tuple[ExtInt, ExtInt]:
    """(min, max) of the total sum by the closed-form pair formulas.

    The minimum is the largest value of p1(X1) + p2(X2) + f(outside both)
    - g(inside both) over all subset pairs; the maximum is the smallest
    value of b1(X1) + b2(X2) + g(outside both) - f(inside both).  The
    total-sum window [alpha, beta] plays no part.
    """
    cell_count = inst.m * inst.n
    if cell_count > 9:
        raise BudgetExceeded(f"{cell_count} cells is beyond the full-scan limit of 9")
    tables = _PairTables(inst)
    size = 1 << cell_count
    full = size - 1
    best_min: "ExtInt | None" = None
    best_max: "ExtInt | None" = None
    for x1 in range(size):
        for x2 in range(size):
            both = x1 & x2
            neither = full & ~(x1 | x2)
            low = tables.p1[x1] + tables.p2[x2] + tables.fsum[neither] - tables.gsum[both]
            high = tables.b1[x1] + tables.b2[x2] + tables.gsum[neither] - tables.fsum[both]
            if best_min is None or low > best_min:
                best_min = low
            if best_max is None or high < best_max:
                best_max = high
    assert best_min is not None and best_max is not None
    return best_min, best_max


def line_polytope_minmax(
    inst: PbmInstance,
    mask: SubsetMask,
    orientation: str,
    budget: EnumerationBudget = DEFAULT_BUDGET,
) -> tuple[int, int]:
    """(min, max) of the subset sum over one orientation's prefix windows.

    Enumerates, line by line, every integer prefix vector inside the
    windows, converts it to entries, and adds up the subset's cells.  Only
    finite windows are supported.
    """
    if orientation not in ("horizontal", "vertical"):
        raise ValueError(f"bad orientation {orientation!r}")
    horizontal = orientation == "horizontal"
    lines = inst.m if horizontal else inst.n
    length = inst.n if horizontal else inst.m
    total_min = 0
    total_max = 0
    cells = mask.sorted_cells()
    for line in range(1, lines + 1):
        if horizontal:
            chosen = {j for (i, j) in cells if i == line}
            windows = [
                (inst.phi1.at(line, j), inst.gamma1.at(line, j)) for j in range(1, length + 1)
            ]
        else:
            chosen = {i for (i, j) in cells if j == line}
            windows = [
                (inst.phi2.at(i, line), inst.gamma2.at(i, line)) for i in range(1, length + 1)
            ]
        if not chosen:
            continue
        combos = 1
        for lo, hi in windows:
            if not lo.is_finite or not hi.is_finite:
                raise BudgetExceeded("prefix windows must be finite for this oracle")
            combos *= hi.value - lo.value + 1
            if combos > budget.max_nodes:
                raise BudgetExceeded("too many prefix vectors to enumerate")
        line_min: "int | None" = None
        line_max: "int | None" = None
        for prefix in product(*[range(lo.value, hi.value + 1) for lo, hi in windows]):
            prev = 0
            val = 0
            for pos in range(1, length + 1):
                entry = prefix[pos - 1] - prev
                prev = prefix[pos - 1]
                if pos in chosen:
                    val += entry
            if line_min is None or val < line_min:
                line_min = val
            if line_max is None or val > line_max:
                line_max = val
        assert line_min is not None and line_max is not None
        total_min += line_min
        total_max += line_max
    return total_min, total_max


def _line_alternates(seq: Sequence[int]) -> bool:
    nz = [v for v in seq if v != 0]
    if not nz or nz[0] != 1 or nz[-1] != 1:
        return False
    return all(a * b == -1 for a, b in zip(nz, nz[1:]))


def is_asm(mat: IntMatrix) -> bool:
    """Alternating sign matrix: nonzeros of every line alternate +1, -1,
    starting and ending with +1."""
    if mat.m != mat.n:
        return False
    if any(v not in (-1, 0, 1) for _, _, v in mat.cells()):
        return False
    return all(_line_alternates(mat.row(i)) for i in range(1, mat.m + 1)) and all(
        _line_alternates(mat.col(j)) for j in range(1, mat.n + 1)
    )


def _prefixes(seq: Sequence[int]) -> list[int]:
    out = []
    s = 0
    for v in seq:
        s += v
        out.append(s)
    return out


def is_k_regular_asm(mat: IntMatrix, k: int) -> bool:
    if mat.m != mat.n:
        return False
    if any(v not in (-1, 0, 1) for _, _, v in mat.cells()):
        return False
    for i in range(1, mat.m + 1):
        pre = _prefixes(mat.row(i))
        if any(not 0 <= p <= k for p in pre) or pre[-1] != k:
            return False
    for j in range(1, mat.n + 1):
        pre = _prefixes(mat.col(j))
        if any(not 0 <= p <= k for p in pre) or pre[-1] != k:
            return False
    return True


def is_pasm(mat: IntMatrix) -> bool:
    if any(v not in (-1, 0, 1) for _, _, v in mat.cells()):
        return False
    for i in range(1, mat.m + 1):
        if any(p not in (0, 1) for p in _prefixes(mat.row(i))):
            return False
    for j in range(1, mat.n + 1):
        if any(p not in (0, 1) for p in _prefixes(mat.col(j))):
            return False
    return True


def is_higher_spin(mat: IntMatrix, r: int) -> bool:
    if mat.m != mat.n:
        return False
    for i in range(1, mat.m + 1):
        pre = _prefixes(mat.row(i))
        if any(not 0 <= p <= r for p in pre) or pre[-1] != r:
            return False
    for j in range(1, mat.n + 1):
        pre = _prefixes(mat.col(j))
        if any(not 0 <= p <= r for p in pre) or pre[-1] != r:
            return False
    return True


def is_aval_sign(mat: IntMatrix) -> bool:
    if any(v not in (-1, 0, 1) for _, _, v in mat.cells()):
        return False
    for i in range(1, mat.m + 1):
        if any(p < 0 for p in _prefixes(mat.row(i))):
            return False
    for j in range(1, mat.n + 1):
        if any(p not in (0, 1) for p in _prefixes(mat.col(j))):
            return False
    return True


def is_brualdi_dahl(mat: IntMatrix, row_sums: Sequence[int], col_sums: Sequence[int]) -> bool:
    if mat.m != len(row_sums) or mat.n != len(col_sums):
        return False
    if any(v not in (-1, 0, 1) for _, _, v in mat.cells()):
        return False
    for i in range(1, mat.m + 1):
        pre = _prefixes(mat.row(i))
        if any(not 0 <= p <= row_sums[i - 1] for p in pre) or pre[-1] != row_sums[i - 1]:
            return False
    for j in range(1, mat.n + 1):
        pre = _prefixes(mat.col(j))
        if any(not 0 <= p <= col_sums[j - 1] for p in pre) or pre[-1] != col_sums[j - 1]:
            return False
    return True


def is_sum_majorized(mat: IntMatrix, bound: IntMatrix) -> bool:
    if (mat.m, mat.n) != (bound.m, bound.n):
        return False
    for i in range(1, mat.m + 1):
        pre = _prefixes(mat.row(i))
        if any(not 0 <= pre[j - 1] <= bound.at(i, j) for j in range(1, mat.n + 1)):
            return False
        if pre[-1] != bound.at(i, mat.n):
            return False
    for j in range(1, mat.n + 1):
        pre = _prefixes(mat.col(j))
        if any(not 0 <= pre[i - 1] <= bound.at(i, j) for i in range(1, mat.m + 1)):
            return False
        if pre[-1] != bound.at(mat.m, j):
            return False
    return True


def _wing_ok(seq: Sequence[int], pattern: str) -> bool:
    nz = [v for v in seq if v != 0]
    if not nz:
        return pattern in ("+-", "-+")
    if any(a * b != -1 for a, b in zip(nz, nz[1:])):
        return False
    want_first = 1 if pattern[0] == "+" else -1
    want_last = 1 if pattern[1] == "+" else -1
    return nz[0] == want_first and nz[-1] == want_last


def is_wasm(mat: IntMatrix, rows: Sequence[str], cols: Sequence[str]) -> bool:
    """Entries {0, +-1}; each line's nonzeros alternate and match its wing
    pattern; all-zero lines are allowed only under mixed-wing patterns."""
    if mat.m != len(rows) or mat.n != len(cols):
        return False
    if any(v not in (-1, 0, 1) for _, _, v in mat.cells()):
        return False
    return all(_wing_ok(mat.row(i), rows[i - 1]) for i in range(1, mat.m + 1)) and all(
        _wing_ok(mat.col(j), cols[j - 1]) for j in range(1, mat.n + 1)
    )


def enumerate_subordinates(x: IntMatrix) -> list[IntMatrix]:
    """All ASMs obtained from x by zeroing some of its nonzero entries."""
    if x.m != x.n:
        raise DimensionMismatch(f"matrix must be square, got {x.m}x{x.n}")
    for i, j, v in x.cells():
        if v not in (-1, 0, 1):
            raise BadEntries(f"entry ({i},{j}) = {v} not in {{-1, 0, 1}}")
    nonzeros = [(i, j) for i, j, v in x.cells() if v != 0]
    if len(nonzeros) > 20:
        raise BudgetExceeded(f"{len(nonzeros)} nonzeros exceed the subset-scan limit of 20")
    out = []
    for bits in range(1 << len(nonzeros)):
        rows = [list(r) for r in x.rows]
        for idx, (i, j) in enumerate(nonzeros):
            if not bits >> idx & 1:
                rows[i - 1][j - 1] = 0
        cand = IntMatrix(x.m, x.n, tuple(tuple(r) for r in rows))
        if is_asm(cand):
            out.append(cand)
    return sorted(out, key=lambda mtx: mtx.rows)


def enumerate_asms(n: int, budget: EnumerationBudget = DEFAULT_BUDGET) -> list[IntMatrix]:
    """All n x n alternating sign matrices, by direct search.

    Fills the grid cell by cell keeping both prefix-sum arrays in {0, 1},
    then keeps exactly the completions whose lines all sum to 1.  Every
    result is double-checked against the alternation definition.
    """
    grid = [[0] * n for _ in range(n)]
    h_pre = [0] * n
    v_pre = [0] * n
    out: list[IntMatrix] = []
    nodes = 0

    def walk(idx: int) -> None:
        nonlocal nodes
        if idx == n * n:
            mat = IntMatrix(n, n, tuple(tuple(r) for r in grid))
            if is_asm(mat):
                out.append(mat)
            return
        i, j = divmod(idx, n)
        for v in (-1, 0, 1):
            nodes += 1
            if nodes > budget.max_nodes:
                raise BudgetExceeded(f"search exceeded {budget.max_nodes} nodes")
            nh = h_pre[i] + v
            nv = v_pre[j] + v
            if nh not in (0, 1) or nv not in (0, 1):
                continue
            if j == n - 1 and nh != 1:
                continue
            if i == n - 1 and nv != 1:
                continue
            grid[i][j] = v
            h_pre[i] = nh
            v_pre[j] = nv
            walk(idx + 1)
            grid[i][j] = 0
            h_pre[i] -= v
            v_pre[j] -= v

    walk(0)
    return sorted(out, key=lambda mtx: mtx.rows)
