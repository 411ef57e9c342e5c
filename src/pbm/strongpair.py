"""Exact evaluation of the strong lower/upper set-function pair.

For one line with prefix-sum windows [phi(l), gamma(l)], the tightest bounds
on the sum of a subset's entries over all vectors obeying every window are
additive over the subset's maximal segments.  For a segment spanning
positions [h, k] the elementary pair is

    p = phi(k) - gamma(h - 1)      (least possible segment sum)
    b = gamma(k) - phi(h - 1)      (greatest possible segment sum)

with phi(0) = gamma(0) = 0.  Summing over the maximal horizontal segments of
a cell subset X gives p1(X)/b1(X); vertical segments give p2(X)/b2(X).

``condition_values`` evaluates the four inequalities whose joint validity
over all pairs of subsets characterizes feasibility of an instance, and
``inequality_record`` evaluates one of them alone.  Their names gen1a,
gen1b, gen1alfa, gen1beta are part of the certificate format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import ExtInt, ExtMatrix, PbmInstance, SubsetMask, fin
from .errors import DimensionMismatch
from .segments import HORIZONTAL, VERTICAL, Segment, maximal_segments

__all__ = [
    "INEQUALITY_NAMES",
    "StrongPairEval",
    "InequalityRecord",
    "ConditionEval",
    "elementary_pair",
    "eval_strong_pair",
    "mask_sum",
    "inequality_record",
    "condition_values",
]

INEQUALITY_NAMES = ("gen1a", "gen1b", "gen1alfa", "gen1beta")


@dataclass(frozen=True, slots=True)
class StrongPairEval:
    """Values of the strong pair on one subset, in both orientations."""

    p1: ExtInt
    b1: ExtInt
    p2: ExtInt
    b2: ExtInt


def elementary_pair(
    phi: Sequence[ExtInt], gamma: Sequence[ExtInt], h: int, k: int
) -> tuple[ExtInt, ExtInt]:
    """Tightest (lower, upper) bounds on the sum over positions h..k.

    ``phi[l-1]``/``gamma[l-1]`` are the windows of position l; position 0
    contributes 0 by convention.
    """
    t = len(phi)
    if len(gamma) != t:
        raise ValueError("phi and gamma must have equal length")
    if not (1 <= h <= k <= t):
        raise ValueError(f"need 1 <= h <= k <= {t}, got h={h}, k={k}")
    gamma_prev = gamma[h - 2] if h >= 2 else fin(0)
    phi_prev = phi[h - 2] if h >= 2 else fin(0)
    return phi[k - 1] - gamma_prev, gamma[k - 1] - phi_prev


def _cell(seg: Segment, position: int) -> tuple[int, int]:
    return (seg.line, position) if seg.orientation == HORIZONTAL else (position, seg.line)


def _segment_bound(at_end: ExtMatrix, before: ExtMatrix, segs: list[Segment]) -> ExtInt:
    """Sum over the segments [h, k] of at_end(k) minus before(h - 1), position 0 reading 0.

    (phi, gamma) gives p, the least sum of the segments' entries; (gamma,
    phi) gives b, the greatest.
    """
    ends = [_cell(seg, seg.end) for seg in segs]
    befores = [_cell(seg, seg.start - 1) for seg in segs if seg.start > 1]
    return at_end.sum_over(ends) - before.sum_over(befores)


def eval_strong_pair(inst: PbmInstance, mask: SubsetMask) -> StrongPairEval:
    """Strong-pair values of a subset under the instance's prefix windows.

    The empty subset evaluates to zero in all four components.
    """
    if (mask.m, mask.n) != (inst.m, inst.n):
        raise DimensionMismatch("mask grid does not match instance")
    rows = maximal_segments(mask, HORIZONTAL)
    cols = maximal_segments(mask, VERTICAL)
    return StrongPairEval(
        p1=_segment_bound(inst.phi1, inst.gamma1, rows),
        b1=_segment_bound(inst.gamma1, inst.phi1, rows),
        p2=_segment_bound(inst.phi2, inst.gamma2, cols),
        b2=_segment_bound(inst.gamma2, inst.phi2, cols),
    )


def mask_sum(mat: ExtMatrix, mask: SubsetMask) -> ExtInt:
    """Sum of the bound table's cells over the subset (0 when empty)."""
    if (mask.m, mask.n) != (mat.m, mat.n):
        raise DimensionMismatch("mask grid does not match matrix")
    return mat.sum_over(mask.cells)


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


def inequality_record(
    inst: PbmInstance, x1: SubsetMask, x2: SubsetMask, name: str
) -> InequalityRecord:
    """Evaluate one of gen1a, gen1b, gen1alfa, gen1beta on the pair (x1, x2).

    Only the terms of the named inequality are computed; ``condition_values``
    lists the four.
    """
    if name not in INEQUALITY_NAMES:
        raise KeyError(name)
    return _record(inst, x1, x2, *_pair_segments(inst, x1, x2), name)


def _pair_segments(
    inst: PbmInstance, x1: SubsetMask, x2: SubsetMask
) -> tuple[list[Segment], list[Segment]]:
    """X1's horizontal and X2's vertical segments, the only ones the inequalities read."""
    for mask in (x1, x2):
        if (mask.m, mask.n) != (inst.m, inst.n):
            raise DimensionMismatch("mask grid does not match instance")
    return maximal_segments(x1, HORIZONTAL), maximal_segments(x2, VERTICAL)


def _record(
    inst: PbmInstance,
    x1: SubsetMask,
    x2: SubsetMask,
    rows: list[Segment],
    cols: list[Segment],
    name: str,
) -> InequalityRecord:
    """The named inequality, given X1's horizontal and X2's vertical segments."""
    if name == "gen1a":
        lhs = _segment_bound(inst.phi1, inst.gamma1, rows) + mask_sum(inst.f, x2 - x1)
        rhs = _segment_bound(inst.gamma2, inst.phi2, cols) + mask_sum(inst.g, x1 - x2)
    elif name == "gen1b":
        lhs = _segment_bound(inst.phi2, inst.gamma2, cols) + mask_sum(inst.f, x1 - x2)
        rhs = _segment_bound(inst.gamma1, inst.phi1, rows) + mask_sum(inst.g, x2 - x1)
    else:
        both = x1 & x2
        neither = (x1 | x2).complement()
        if name == "gen1alfa":
            lhs = inst.alpha
            rhs = (
                _segment_bound(inst.gamma1, inst.phi1, rows)
                + _segment_bound(inst.gamma2, inst.phi2, cols)
                + mask_sum(inst.g, neither)
                - mask_sum(inst.f, both)
            )
        else:
            lhs = (
                _segment_bound(inst.phi1, inst.gamma1, rows)
                + _segment_bound(inst.phi2, inst.gamma2, cols)
                + mask_sum(inst.f, neither)
                - mask_sum(inst.g, both)
            )
            rhs = inst.beta
    return InequalityRecord(name, lhs, rhs)


def condition_values(inst: PbmInstance, x1: SubsetMask, x2: SubsetMask) -> ConditionEval:
    """Evaluate gen1a, gen1b, gen1alfa, gen1beta on the pair (x1, x2).

    With p1, b1 from X1's horizontal segments and p2, b2 from X2's
    vertical ones:

    * gen1a: p1 + f(X2 - X1) <= b2 + g(X1 - X2);
    * gen1b: p2 + f(X1 - X2) <= b1 + g(X2 - X1);
    * gen1alfa: alpha <= b1 + b2 + g(neither) - f(both);
    * gen1beta: p1 + p2 + f(neither) - g(both) <= beta.

    An inequality with -inf on the left or +inf on the right holds
    vacuously; that is the natural reading of the extended order.
    """
    rows, cols = _pair_segments(inst, x1, x2)
    return ConditionEval(*(_record(inst, x1, x2, rows, cols, name) for name in INEQUALITY_NAMES))
