"""Feasibility, certificates, prescriptions, and total-sum/cost optimization.

Every question here is one ``min_cost_circulation`` on one network, and
``_answer`` is the one reading of its outcome as a ``Result``: a cut
becomes a certificate, a pair of cell subsets on which one of the four
feasibility inequalities (gen1a, gen1b, gen1alfa, gen1beta) strictly
fails; a ``Ray`` becomes ``"unbounded"``; a circulation becomes the
matrix that ``checked_matrix`` reads off it and checks against the
instance's true bounds, and every optimum value is read off that checked
circulation.  Every solver, here and in ``asmkit``, returns through it.

Both optimizers make one min-cost solve.  Infinite bounds are modelled by
a large finite K, which no bounded optimum needs, so the solve's optimum
is the true one unless the objective is unbounded.  The solve decides that
from its optimal potentials, and only then solves the recession instance
for the ``Ray`` that proves it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .circulation import (
    Certificate,
    CutWitness,
    Ray,
    build_network,
    checked_matrix,
    cut_to_certificate,
    min_cost_circulation,
)
from .core import NEG_INF, POS_INF, IntMatrix, PbmInstance, SubsetMask
from .errors import DimensionMismatch, InternalError, PrescriptionOutOfEntryBounds
from .strongpair import condition_values

if TYPE_CHECKING:
    from .asmkit import SegmentFamilyCertificate

__all__ = [
    "Certificate",
    "Result",
    "solve",
    "check_condition",
    "extremal_total_sum",
    "optimize_cost",
    "pin_entries",
    "check_strict",
]


@dataclass(frozen=True, slots=True)
class Result:
    """The answer of any solver: a matrix, a certificate, or neither if unbounded.

    ``direction`` and ``value`` are set by the optimizers, ``family`` by
    ``asmkit`` when a certificate reads as a segment family.
    """

    status: str
    matrix: "IntMatrix | None" = None
    certificate: "Certificate | None" = None
    direction: "str | None" = None
    value: "int | None" = None
    family: "SegmentFamilyCertificate | None" = None

    def __post_init__(self) -> None:
        carried = (self.matrix is not None, self.certificate is not None)
        if carried != (self.status in ("feasible", "optimal"), self.status == "infeasible"):
            raise InternalError(
                f"a {self.status!r} result cannot carry (matrix, certificate) = {carried}"
            )

    @property
    def is_feasible(self) -> bool:
        return self.status != "infeasible"

    @property
    def count(self) -> "int | None":
        """``value`` under the name the acceptance tests read."""
        return self.value


def _answer(
    net,
    cost: "Mapping[int, int] | None" = None,
    direction: "str | None" = None,
    info: "dict | None" = None,
) -> Result:
    """Solve ``net`` and read the outcome as a ``Result``.

    Without ``cost`` this decides feasibility; with it, it optimizes
    sum(cost[a] * flow[a]) over the arcs ``cost`` names, in ``direction``,
    which must be "max" or "min".  A cut comes back as the ``Certificate``
    that ``cut_to_certificate`` reads off it, and a circulation as the
    matrix that ``checked_matrix`` reads off it against ``net.instance``,
    the instance the network was built from.
    """
    if cost is not None and direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    sign = -1 if direction == "max" else 1
    signed = None if cost is None else {a: sign * c for a, c in cost.items()}
    res = min_cost_circulation(net, signed, info)
    if isinstance(res, CutWitness):
        return Result("infeasible", certificate=cut_to_certificate(net, res), direction=direction)
    if isinstance(res, Ray):
        return Result("unbounded", direction=direction)
    mat = checked_matrix(net.instance, res)
    if cost is None:
        return Result("feasible", mat)
    value = sum(c * res.flows[a] for a, c in cost.items())
    return Result("optimal", mat, direction=direction, value=value)


def solve(inst: PbmInstance, info: "dict | None" = None) -> Result:
    """Find a matrix meeting every bound, or a certificate that none exists."""
    return _answer(build_network(inst), info=info)


check_condition = condition_values


def extremal_total_sum(
    inst: PbmInstance, direction: str, info: "dict | None" = None
) -> Result:
    """Largest or smallest total sum over all matrices meeting the bounds.

    The total-sum window [alpha, beta] is ignored: the extremum is taken
    over the prefix and entry bounds alone.
    """
    relaxed = dataclasses.replace(inst, alpha=NEG_INF, beta=POS_INF)
    net = build_network(relaxed)
    return _answer(net, {net.a0_id: 1}, direction, info)


def optimize_cost(
    inst: PbmInstance,
    costs: IntMatrix,
    direction: str = "min",
    info: "dict | None" = None,
) -> Result:
    """Optimize a linear objective sum(costs[i,j] * A[i,j]) over the instance."""
    if (costs.m, costs.n) != (inst.m, inst.n):
        raise DimensionMismatch(
            f"cost matrix is {costs.m}x{costs.n}, instance is {inst.m}x{inst.n}"
        )
    net = build_network(inst)
    cost = {net.n_arc_id(i, j): c for i, j, c in costs.cells()}
    return _answer(net, cost, direction, info)


def pin_entries(inst: PbmInstance, pins: Iterable[tuple[int, int, int]]) -> PbmInstance:
    """The instance with f = g = v at every cell (i, j) of the triples (i, j, v).

    Each value must lie within the entry bounds at its cell.  A certificate
    for the pinned instance proves that no completion of the pins exists.
    """
    pins = list(pins)
    mask = SubsetMask.from_cells(inst.m, inst.n, [(i, j) for i, j, _ in pins])
    if len(mask.cells) != len(pins):
        raise DimensionMismatch("prescribed values must cover the mask exactly once")
    for i, j, v in sorted(pins):
        lo, hi = inst.f.at(i, j), inst.g.at(i, j)
        if not lo <= v <= hi:
            raise PrescriptionOutOfEntryBounds(f"prescribed ({i},{j}) = {v} outside [{lo}, {hi}]")
    return dataclasses.replace(inst, f=inst.f.pinned(pins), g=inst.g.pinned(pins))


def check_strict(inst: PbmInstance) -> "int | None":
    """The total H that pinned line sums force on every matrix, or None if none.

    Strict means phi1(i, n) == gamma1(i, n) for every row, phi2(m, j) ==
    gamma2(m, j) for every column, and the forced row sums and column sums
    add up to the same total H.
    """
    n, m = inst.n, inst.m
    rows = [(inst.phi1.at(i, n), inst.gamma1.at(i, n)) for i in range(1, m + 1)]
    cols = [(inst.phi2.at(m, j), inst.gamma2.at(m, j)) for j in range(1, n + 1)]
    if any(lo != hi for lo, hi in rows + cols):
        return None
    # a lower bound is never +inf and an upper bound never -inf, so equal ends are finite
    total = sum(lo.value for lo, _ in rows)
    return total if total == sum(lo.value for lo, _ in cols) else None
