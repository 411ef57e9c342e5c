"""Exact evaluation of the strong lower/upper set-function pair.

A maximal segment of a cell subset X is a maximal run of consecutive cells
of X inside one row (horizontal) or one column (vertical).  For one line
with prefix-sum windows [phi(l), gamma(l)], the tightest bounds on the sum
of X's entries over all vectors obeying every window are additive over X's
maximal segments.  For a segment spanning positions [h, k] the elementary
pair is

    p = phi(k) - gamma(h - 1)      (least possible segment sum)
    b = gamma(k) - phi(h - 1)      (greatest possible segment sum)

with phi(0) = gamma(0) = 0.  Over a whole grid, each segment's k is a run
end, a cell of X whose next cell in its line is not in X, and its h - 1 is
a run predecessor, a cell not in X whose next cell is in X (a segment that
starts its line has none).  So

    p(X) = phi(ends) - gamma(befores)
    b(X) = gamma(ends) - phi(befores)

where each term sums a bound table over a set of cells.  "Next" is the
next cell in the row for the horizontal windows, which give p1(X)/b1(X),
and the cell below for the vertical ones, which give p2(X)/b2(X).  Every
function here reads a subset as a set of row-major cell indices, and a
cell's part in a run follows from its neighbours in its line.  So an
evaluation costs time in the size of the subsets and builds no segment;
only a sum over the cells in neither subset reads a whole table: its
total less the subsets' part, or the rest of the grid when that is less.

``condition_values`` evaluates the four inequalities whose joint validity
over all pairs of subsets characterizes feasibility of an instance, and
``pair_record`` evaluates one of them alone, on subsets already given as
sets of cell indices, as a cut's named nodes give them.  Their names
gen1a, gen1b, gen1alfa, gen1beta are part of the certificate format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import NEG_INF, POS_INF, ExtInt, ExtMatrix, PbmInstance, SubsetMask, fin
from .errors import DimensionMismatch, InfinityClash

__all__ = [
    "INEQUALITY_NAMES",
    "StrongPairEval",
    "InequalityRecord",
    "ConditionEval",
    "elementary_pair",
    "eval_strong_pair",
    "mask_sum",
    "pair_record",
    "condition_values",
]

INEQUALITY_NAMES = ("gen1a", "gen1b", "gen1alfa", "gen1beta")


@dataclass(frozen=True, slots=True)
class StrongPairEval:
    """Values of the strong pair on one subset, in both orientations.

    ``pbm eval`` prints the fields, in this order, as its first keys (docs/schema.md).
    """

    p1: ExtInt
    b1: ExtInt
    p2: ExtInt
    b2: ExtInt


def elementary_pair(
    phi: Sequence[ExtInt], gamma: Sequence[ExtInt], h: int, k: int
) -> tuple[ExtInt, ExtInt]:
    """Tightest (lower, upper) bounds on the sum over positions h..k.

    ``phi[l-1]``/``gamma[l-1]`` are the windows of position l; position 0
    contributes 0 by convention.  This is the paper's elementary pair of
    one segment of a line: the prefix windows of a line form a laminar
    (chain) family, the sums they allow form a g-polymatroid, and its
    strong pair on any subset X of the line is the sum of the elementary
    pairs of X's maximal segments.  ``eval_strong_pair`` computes that sum
    from run ends; ``tests/test_strongpair.py`` checks that the two agree.
    """
    t = len(phi)
    if len(gamma) != t:
        raise ValueError("phi and gamma must have equal length")
    if not (1 <= h <= k <= t):
        raise ValueError(f"need 1 <= h <= k <= {t}, got h={h}, k={k}")
    gamma_prev = gamma[h - 2] if h >= 2 else fin(0)
    phi_prev = phi[h - 2] if h >= 2 else fin(0)
    return phi[k - 1] - gamma_prev, gamma[k - 1] - phi_prev


def _cells(mask: SubsetMask, m: int, n: int, grid_of: str) -> set[int]:
    """The subset as row-major cell indices; raises unless it lives on the m x n grid."""
    if (mask.m, mask.n) != (m, n):
        raise DimensionMismatch(f"mask grid does not match {grid_of}")
    return {(i - 1) * n + j - 1 for i, j in mask.cells}


def _sum(mat: ExtMatrix, cells: set[int], outside: bool = False) -> ExtInt:
    """The table summed over the cells, or over all others when ``outside``; 0 when none.

    The sum outside is the table's total and infinity counts less the
    cells' own part, or the sum over the other cells when they are fewer.
    Opposite infinities raise InfinityClash.
    """
    if outside and 2 * len(cells) > len(mat.values):
        cells, outside = set(range(len(mat.values))).difference(cells), False
    tags = [*map(mat.tags.__getitem__, cells)]
    lows, highs, total = tags.count(-1), tags.count(1), sum(map(mat.values.__getitem__, cells))
    if outside:
        lows, highs = mat.tags.count(-1) - lows, mat.tags.count(1) - highs
        total = sum(mat.values) - total
    if lows and highs:
        raise InfinityClash("cannot add -inf and +inf")
    return NEG_INF if lows else POS_INF if highs else fin(total)


_Runs = tuple[set[int], set[int]]


def _runs(x: set[int], n: int, horizontal: bool) -> _Runs:
    """The run ends and the run predecessors of X, along rows or along columns.

    ``before`` holds the cell before each cell of X in its line.  A cell of
    X is a run end unless it comes before another, and a cell before one
    of X but outside X is a run predecessor.
    """
    before = {k - 1 for k in x if k % n} if horizontal else {k - n for k in x if k >= n}
    return x - before, before - x


def _bound(at_end: ExtMatrix, before: ExtMatrix, runs: _Runs) -> ExtInt:
    """at_end summed over the run ends minus before summed over the run predecessors.

    (phi, gamma) gives p, the least sum of the runs' entries; (gamma, phi)
    gives b, the greatest.
    """
    ends, befores = runs
    return _sum(at_end, ends) - _sum(before, befores)


def eval_strong_pair(inst: PbmInstance, mask: SubsetMask) -> StrongPairEval:
    """Strong-pair values of a subset under the instance's prefix windows.

    The empty subset evaluates to zero in all four components.
    """
    x = _cells(mask, inst.m, inst.n, "instance")
    rows, cols = _runs(x, inst.n, True), _runs(x, inst.n, False)
    return StrongPairEval(
        p1=_bound(inst.phi1, inst.gamma1, rows),
        b1=_bound(inst.gamma1, inst.phi1, rows),
        p2=_bound(inst.phi2, inst.gamma2, cols),
        b2=_bound(inst.gamma2, inst.phi2, cols),
    )


def mask_sum(mat: ExtMatrix, mask: SubsetMask) -> ExtInt:
    """Sum of the bound table's cells over the subset (0 when empty)."""
    return _sum(mat, _cells(mask, mat.m, mat.n, "matrix"))


@dataclass(frozen=True, slots=True)
class InequalityRecord:
    """One evaluated inequality: holds iff lhs <= rhs."""

    name: str
    lhs: ExtInt
    rhs: ExtInt

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True, slots=True)
class ConditionEval:
    """The four feasibility inequalities evaluated on one subset pair."""

    gen1a: InequalityRecord
    gen1b: InequalityRecord
    gen1alfa: InequalityRecord
    gen1beta: InequalityRecord

    def records(self) -> tuple[InequalityRecord, ...]:
        return (self.gen1a, self.gen1b, self.gen1alfa, self.gen1beta)

    def by_name(self, name: str) -> InequalityRecord:
        if name not in INEQUALITY_NAMES:
            raise KeyError(name)
        return getattr(self, name)

    @property
    def all_hold(self) -> bool:
        return all(rec.holds for rec in self.records())


def pair_record(inst: PbmInstance, x1: set[int], x2: set[int], name: str) -> InequalityRecord:
    """Evaluate one of gen1a, gen1b, gen1alfa, gen1beta on the pair (X1, X2).

    X1 and X2 are sets of row-major cell indices, k = (i - 1) * n + j - 1.
    Only the terms of the named inequality are computed, each a sum over
    run ends, run predecessors or the sets themselves; ``condition_values``
    lists the four.
    """
    if name not in INEQUALITY_NAMES:
        raise KeyError(name)
    rows, cols = _runs(x1, inst.n, True), _runs(x2, inst.n, False)
    if name == "gen1a":
        lhs = _bound(inst.phi1, inst.gamma1, rows) + _sum(inst.f, x2 - x1)
        rhs = _bound(inst.gamma2, inst.phi2, cols) + _sum(inst.g, x1 - x2)
    elif name == "gen1b":
        lhs = _bound(inst.phi2, inst.gamma2, cols) + _sum(inst.f, x1 - x2)
        rhs = _bound(inst.gamma1, inst.phi1, rows) + _sum(inst.g, x2 - x1)
    else:
        both, either = x1 & x2, x1 | x2
        if name == "gen1alfa":
            lhs = inst.alpha
            rhs = (_bound(inst.gamma1, inst.phi1, rows) + _bound(inst.gamma2, inst.phi2, cols)
                   + _sum(inst.g, either, outside=True) - _sum(inst.f, both))
        else:
            lhs = (_bound(inst.phi1, inst.gamma1, rows) + _bound(inst.phi2, inst.gamma2, cols)
                   + _sum(inst.f, either, outside=True) - _sum(inst.g, both))
            rhs = inst.beta
    return InequalityRecord(name, lhs, rhs)


def condition_values(inst: PbmInstance, x1: SubsetMask, x2: SubsetMask) -> ConditionEval:
    """Evaluate gen1a, gen1b, gen1alfa, gen1beta on the pair (x1, x2).

    With p1, b1 from X1's horizontal runs and p2, b2 from X2's vertical
    ones:

    * gen1a: p1 + f(X2 - X1) <= b2 + g(X1 - X2);
    * gen1b: p2 + f(X1 - X2) <= b1 + g(X2 - X1);
    * gen1alfa: alpha <= b1 + b2 + g(neither) - f(both);
    * gen1beta: p1 + p2 + f(neither) - g(both) <= beta.

    An inequality with -inf on the left or +inf on the right holds
    vacuously; that is the natural reading of the extended order.
    """
    c1, c2 = _cells(x1, inst.m, inst.n, "instance"), _cells(x2, inst.m, inst.n, "instance")
    return ConditionEval(*(pair_record(inst, c1, c2, name) for name in INEQUALITY_NAMES))
