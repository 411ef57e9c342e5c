"""Feasibility, certificates, prescriptions, and total-sum/cost optimization.

``solve`` returns either a matrix that meets every bound of the instance or
a certificate: a pair of cell subsets on which one of the four feasibility
inequalities (gen1a, gen1b, gen1alfa, gen1beta) strictly fails.  Exactly one
of the two branches is present, and both are re-verified before they are
returned.  Every matrix any solver returns, here and in ``asmkit``, is read
off its circulation by ``_checked_matrix``, which re-checks it against the
instance's true bounds once, and every optimum value is read off the
circulation that check rebuilds from the matrix.

Both optimizers make one min-cost solve.  Infinite bounds are modelled by
a large finite K, which no bounded optimum reaches, so the solve's optimum
is the true one unless the objective is unbounded.  The solve decides that
directly: the objective is unbounded exactly when the instance is feasible
and some cycle of negative cost runs only along infinite bounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Mapping

from .circulation import (
    _within,
    Circulation,
    CutWitness,
    NegativeCycle,
    build_network,
    circulation_from_matrix,
    cut_to_certificate,
    matrix_from_circulation,
    min_cost_circulation,
)
from .core import NEG_INF, POS_INF, ExtInt, IntMatrix, PbmInstance, SubsetMask, fin
from .errors import (
    BoundViolation,
    DimensionMismatch,
    InternalError,
    PrescriptionOutOfEntryBounds,
)
from .strongpair import condition_values

__all__ = [
    "Certificate",
    "FeasibilityResult",
    "ExtremalResult",
    "Prescription",
    "StrictCheck",
    "solve",
    "check_condition",
    "extremal_total_sum",
    "optimize_cost",
    "solve_with_prescription",
    "check_strict",
]


@dataclass(frozen=True, slots=True)
class Certificate:
    """A subset pair on which the named inequality strictly fails."""

    x1: SubsetMask
    x2: SubsetMask
    case: int
    violated: str
    lhs: ExtInt
    rhs: ExtInt


@dataclass(frozen=True, slots=True)
class FeasibilityResult:
    """Either a feasible matrix or a certificate, never both."""

    matrix: "IntMatrix | None"
    certificate: "Certificate | None"

    def __post_init__(self) -> None:
        if (self.matrix is None) == (self.certificate is None):
            raise InternalError("result must carry exactly one of matrix/certificate")

    @property
    def is_feasible(self) -> bool:
        return self.matrix is not None


@dataclass(frozen=True, slots=True)
class ExtremalResult:
    """Outcome of an optimization: optimal, infeasible, or unbounded."""

    status: str
    direction: str
    value: "int | None" = None
    matrix: "IntMatrix | None" = None
    certificate: "Certificate | None" = None


def _certificate_from_cut(net, witness: CutWitness) -> Certificate:
    x1, x2, case, record = cut_to_certificate(net, witness)
    return Certificate(
        x1=x1, x2=x2, case=case, violated=record.name, lhs=record.lhs, rhs=record.rhs
    )


def _checked_matrix(
    net, inst: PbmInstance, circ: Circulation
) -> tuple[IntMatrix, Circulation]:
    """The circulation's matrix, re-verified against every bound of ``inst``.

    Also returns the circulation the check rebuilds from the matrix alone.
    """
    mat = matrix_from_circulation(net, circ)
    try:
        rebuilt = circulation_from_matrix(inst, mat)
    except BoundViolation as exc:
        raise InternalError(f"solver produced an invalid matrix: {exc}") from exc
    return mat, rebuilt


def solve(inst: PbmInstance, info: "dict | None" = None) -> FeasibilityResult:
    """Find a matrix meeting every bound, or a certificate that none exists."""
    net = build_network(inst)
    res = min_cost_circulation(net, info=info)
    if info is not None:
        info["network"] = net
    if isinstance(res, CutWitness):
        return FeasibilityResult(matrix=None, certificate=_certificate_from_cut(net, res))
    mat, _ = _checked_matrix(net, inst, res)
    if info is not None:
        info["circulation"] = res
    return FeasibilityResult(matrix=mat, certificate=None)


check_condition = condition_values


def _optimize(
    inst: PbmInstance,
    net,
    cost: Mapping[int, int],
    direction: str,
    info: "dict | None",
) -> ExtremalResult:
    """Optimize sum(cost[a] * flow[a]) over the arcs ``cost`` names, in one solve."""
    if direction not in ("max", "min"):
        raise ValueError(f"direction must be 'max' or 'min', got {direction!r}")
    sign = -1 if direction == "max" else 1
    res = min_cost_circulation(net, {a: sign * c for a, c in cost.items()}, info)
    if isinstance(res, CutWitness):
        return ExtremalResult(
            status="infeasible",
            direction=direction,
            certificate=_certificate_from_cut(net, res),
        )
    if isinstance(res, NegativeCycle):
        return ExtremalResult(status="unbounded", direction=direction)
    mat, checked = _checked_matrix(net, inst, res)
    value = sum(c * checked.flows[a] for a, c in cost.items())
    return ExtremalResult(status="optimal", direction=direction, value=value, matrix=mat)


def extremal_total_sum(
    inst: PbmInstance, direction: str, info: "dict | None" = None
) -> ExtremalResult:
    """Largest or smallest total sum over all matrices meeting the bounds.

    The total-sum window [alpha, beta] is ignored: the extremum is taken
    over the prefix and entry bounds alone.
    """
    relaxed = dataclasses.replace(inst, alpha=NEG_INF, beta=POS_INF)
    net = build_network(relaxed)
    return _optimize(relaxed, net, {net.a0_id: 1}, direction, info)


def optimize_cost(
    inst: PbmInstance,
    costs: IntMatrix,
    direction: str = "min",
    info: "dict | None" = None,
) -> ExtremalResult:
    """Optimize a linear objective sum(costs[i,j] * A[i,j]) over the instance."""
    if (costs.m, costs.n) != (inst.m, inst.n):
        raise DimensionMismatch(
            f"cost matrix is {costs.m}x{costs.n}, instance is {inst.m}x{inst.n}"
        )
    net = build_network(inst)
    cost = {net.n_arc_id(i, j): c for i, j, c in costs.cells()}
    return _optimize(inst, net, cost, direction, info)


@dataclass(frozen=True, slots=True)
class Prescription:
    """Fixed integer values on a subset of cells."""

    mask: SubsetMask
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        positions = {(i, j) for (i, j, _) in self.entries}
        if positions != set(self.mask.cells) or len(positions) != len(self.entries):
            raise DimensionMismatch("prescribed values must cover the mask exactly once")

    @staticmethod
    def create(
        m: int,
        n: int,
        assignments: "Mapping[tuple[int, int], int] | Iterable[tuple[int, int, int]]",
    ) -> "Prescription":
        if isinstance(assignments, Mapping):
            triples = [(i, j, v) for (i, j), v in assignments.items()]
        else:
            triples = [(i, j, v) for (i, j, v) in assignments]
        mask = SubsetMask.from_cells(m, n, [(i, j) for (i, j, _) in triples])
        return Prescription(mask=mask, entries=tuple(sorted(triples)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for (i, j, v) in self.entries}


def solve_with_prescription(
    inst: PbmInstance, prescription: Prescription, info: "dict | None" = None
) -> FeasibilityResult:
    """Feasibility with some entries pinned to prescribed values.

    Each prescribed value must lie within the entry bounds at its cell.  A
    certificate, if returned, refers to the instance with the prescribed
    cells' entry bounds pinched to their values, which proves that no
    completion of the prescription exists.
    """
    if (prescription.mask.m, prescription.mask.n) != (inst.m, inst.n):
        raise DimensionMismatch("prescription grid does not match instance")
    for i, j, v in prescription.entries:
        if not _within(inst.f.at(i, j), v, inst.g.at(i, j)):
            raise PrescriptionOutOfEntryBounds(
                f"prescribed ({i},{j}) = {v} outside "
                f"[{inst.f.at(i, j)}, {inst.g.at(i, j)}]"
            )
    fixed = prescription.as_dict()
    new_f = [
        [
            fin(fixed[(i, j)]) if (i, j) in fixed else inst.f.at(i, j)
            for j in range(1, inst.n + 1)
        ]
        for i in range(1, inst.m + 1)
    ]
    new_g = [
        [
            fin(fixed[(i, j)]) if (i, j) in fixed else inst.g.at(i, j)
            for j in range(1, inst.n + 1)
        ]
        for i in range(1, inst.m + 1)
    ]
    pinched = dataclasses.replace(
        inst,
        f=inst.f.from_rows(new_f),
        g=inst.g.from_rows(new_g),
    )
    result = solve(pinched, info)
    if result.is_feasible:
        for i, j, v in prescription.entries:
            if result.matrix.at(i, j) != v:
                raise InternalError("solution ignores a prescribed value")
    return result


@dataclass(frozen=True, slots=True)
class StrictCheck:
    """Whether all full-line prefix windows pin the line sums to one total."""

    is_strict: bool
    common_sum: "int | None" = None
    mismatch: "str | None" = None


def check_strict(inst: PbmInstance) -> StrictCheck:
    """Detect pinned line sums: every row and column sum forced, equal total.

    Strict means phi1(i, n) == gamma1(i, n) for every row, phi2(m, j) ==
    gamma2(m, j) for every column, and the forced row sums and column sums
    add up to the same total H.
    """
    n, m = inst.n, inst.m
    row_sums = []
    for i in range(1, m + 1):
        lo, hi = inst.phi1.at(i, n), inst.gamma1.at(i, n)
        if lo != hi:
            return StrictCheck(
                is_strict=False,
                mismatch=f"row {i} sum not pinned: phi1({i},{n}) = {lo}, gamma1({i},{n}) = {hi}",
            )
        row_sums.append(lo.finite())
    col_sums = []
    for j in range(1, n + 1):
        lo, hi = inst.phi2.at(m, j), inst.gamma2.at(m, j)
        if lo != hi:
            return StrictCheck(
                is_strict=False,
                mismatch=f"column {j} sum not pinned: phi2({m},{j}) = {lo}, gamma2({m},{j}) = {hi}",
            )
        col_sums.append(lo.finite())
    if sum(row_sums) != sum(col_sums):
        return StrictCheck(
            is_strict=False,
            mismatch=(
                f"row sums add to {sum(row_sums)} but column sums add to {sum(col_sums)}"
            ),
        )
    return StrictCheck(is_strict=True, common_sum=sum(row_sums))
