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
over all pairs of subsets characterizes feasibility of an instance.  Their
names gen1a, gen1b, gen1alfa, gen1beta are part of the certificate format.
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


def _line_pair(phi: ExtMatrix, gamma: ExtMatrix, segs: list[Segment]) -> tuple[ExtInt, ExtInt]:
    """Summed elementary pairs of the segments.

    A segment [h, k] adds phi(k) to p and gamma(k) to b, and past position 1
    takes gamma(h - 1) from p and phi(h - 1) from b.
    """
    ends = [_cell(seg, seg.end) for seg in segs]
    befores = [_cell(seg, seg.start - 1) for seg in segs if seg.start > 1]
    return (
        phi.sum_over(ends) - gamma.sum_over(befores),
        gamma.sum_over(ends) - phi.sum_over(befores),
    )


def eval_strong_pair(inst: PbmInstance, mask: SubsetMask) -> StrongPairEval:
    """Strong-pair values of a subset under the instance's prefix windows.

    The empty subset evaluates to zero in all four components.
    """
    if (mask.m, mask.n) != (inst.m, inst.n):
        raise DimensionMismatch("mask grid does not match instance")
    p1, b1 = _line_pair(inst.phi1, inst.gamma1, maximal_segments(mask, HORIZONTAL))
    p2, b2 = _line_pair(inst.phi2, inst.gamma2, maximal_segments(mask, VERTICAL))
    return StrongPairEval(p1=p1, b1=b1, p2=p2, b2=b2)


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


def condition_values(inst: PbmInstance, x1: SubsetMask, x2: SubsetMask) -> ConditionEval:
    """Evaluate gen1a, gen1b, gen1alfa, gen1beta on the pair (x1, x2).

    An inequality with -inf on the left or +inf on the right holds
    vacuously; that is the natural reading of the extended order.
    """
    e1 = eval_strong_pair(inst, x1)
    e2 = eval_strong_pair(inst, x2)
    f_21 = mask_sum(inst.f, x2 - x1)
    f_12 = mask_sum(inst.f, x1 - x2)
    g_12 = mask_sum(inst.g, x1 - x2)
    g_21 = mask_sum(inst.g, x2 - x1)
    both = x1 & x2
    neither = (x1 | x2).complement()
    f_both = mask_sum(inst.f, both)
    g_both = mask_sum(inst.g, both)
    f_neither = mask_sum(inst.f, neither)
    g_neither = mask_sum(inst.g, neither)

    gen1a = InequalityRecord("gen1a", e1.p1 + f_21, e2.b2 + g_12)
    gen1b = InequalityRecord("gen1b", e2.p2 + f_12, e1.b1 + g_21)
    gen1alfa = InequalityRecord("gen1alfa", inst.alpha, e1.b1 + e2.b2 + g_neither - f_both)
    gen1beta = InequalityRecord("gen1beta", e1.p1 + e2.p2 + f_neither - g_both, inst.beta)
    return ConditionEval(gen1a=gen1a, gen1b=gen1b, gen1alfa=gen1alfa, gen1beta=gen1beta)
