"""Sign-consistent integer decomposition of a matrix into k bounded parts.

Given a matrix A meeting an instance's bounds, ``decompose`` writes
A = A_1 + ... + A_k where every part meets the instance shrunk by k (lower
bounds divided by k and floored, upper bounds divided by k and ceiled) and
is sign-consistent with A: parts never have an entry of opposite sign to
the corresponding entry of A.

The parts are peeled one at a time.  With i parts still owed and residual
z, one part is any integer circulation within

    max(l', z - (i-1) u')  <=  z_1  <=  min(u', z - (i-1) l')

where [l', u'] are the shrunk arc bounds, tightened on the entry arcs so
that each part's entry has the sign of A's entry.  The box always contains
z / i, so by integrality of circulation polyhedra an integer part exists;
failure to find one is a bug, not an input condition.

``decompose_k_regular_asm`` specializes this to nonnegative-prefix matrices
with all line sums k, whose parts are then alternating sign matrices with
pairwise disjoint supports.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from .circulation import (
    Circulation,
    CutWitness,
    circulation_from_matrix,
    find_feasible_circulation,
    instance_arc_bounds,
    network_from_bounds,
)
from .core import ExtInt, IntMatrix, PbmInstance, fin, validate_instance
from .errors import BadParams, BoundViolation, InfeasibleInput, InternalError, NotKRegular

__all__ = [
    "Decomposition",
    "shrink_instance",
    "decompose",
    "decompose_k_regular_asm",
]


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Distinct parts with multiplicities; multiplicities add up to k."""

    parts: tuple[tuple[IntMatrix, int], ...]
    k: int

    def __post_init__(self) -> None:
        if sum(mult for _, mult in self.parts) != self.k:
            raise InternalError("part multiplicities do not add up to k")

    def matrices(self) -> list[IntMatrix]:
        """All parts, repeated according to multiplicity."""
        out: list[IntMatrix] = []
        for mat, mult in self.parts:
            out.extend([mat] * mult)
        return out

    def total(self) -> IntMatrix:
        acc = IntMatrix.zeros(self.parts[0][0].m, self.parts[0][0].n)
        for mat in self.matrices():
            acc = acc.add(mat)
        return acc


def shrink_instance(inst: PbmInstance, k: int) -> PbmInstance:
    """Divide all bounds by k: lower bounds floored, upper bounds ceiled."""
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")

    def floor_mat(mat):
        return mat.from_rows([[e.floor_div(k) for e in row] for row in mat.rows])

    def ceil_mat(mat):
        return mat.from_rows([[e.ceil_div(k) for e in row] for row in mat.rows])

    return validate_instance(
        dataclasses.replace(
            inst,
            phi1=floor_mat(inst.phi1),
            gamma1=ceil_mat(inst.gamma1),
            phi2=floor_mat(inst.phi2),
            gamma2=ceil_mat(inst.gamma2),
            f=floor_mat(inst.f),
            g=ceil_mat(inst.g),
            alpha=inst.alpha.floor_div(k),
            beta=inst.beta.ceil_div(k),
        )
    )


def _matrix_from_flows(m: int, n: int, flows: tuple[int, ...]) -> IntMatrix:
    mn = m * n
    rows = tuple(
        tuple(flows[2 * mn + (i - 1) * n + (j - 1)] for j in range(1, n + 1))
        for i in range(1, m + 1)
    )
    return IntMatrix(m, n, rows)


def _check_sign_consistent(a: IntMatrix, part: IntMatrix) -> None:
    for i, j, v in part.cells():
        if v * a.at(i, j) < 0 or (a.at(i, j) == 0 and v != 0):
            raise InternalError(
                f"part entry ({i},{j}) = {v} not sign-consistent with {a.at(i, j)}"
            )


def decompose(inst: PbmInstance, a: IntMatrix, k: int) -> Decomposition:
    """Split a matrix meeting the instance into k sign-consistent parts.

    Raises InfeasibleInput when the matrix does not meet the instance's
    bounds; any failure after that point is an InternalError.
    """
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    try:
        z_star = circulation_from_matrix(inst, a)
    except BoundViolation as exc:
        raise InfeasibleInput(str(exc)) from exc
    shrunk = shrink_instance(inst, k)
    lo, up = instance_arc_bounds(shrunk)
    mn = inst.m * inst.n
    for arc_id in range(2 * mn, 3 * mn):
        v = z_star.flows[arc_id]
        if v >= 0:
            lo[arc_id] = max(lo[arc_id], fin(0))
        if v <= 0:
            up[arc_id] = min(up[arc_id], fin(0))
    z_res = list(z_star.flows)
    part_flows: list[tuple[int, ...]] = []
    for remaining in range(k, 1, -1):
        lower_i = [
            max(lo[a_id], fin(z_res[a_id]) - up[a_id].times(remaining - 1))
            for a_id in range(3 * mn + 1)
        ]
        upper_i = [
            min(up[a_id], fin(z_res[a_id]) - lo[a_id].times(remaining - 1))
            for a_id in range(3 * mn + 1)
        ]
        net = network_from_bounds(
            inst.m,
            inst.n,
            lower_i,
            upper_i,
            extra_finite=sum(abs(z) for z in z_res),
        )
        res = find_feasible_circulation(net)
        if isinstance(res, CutWitness):
            raise InternalError("peeling step found no part; the box should never be empty")
        part_flows.append(res.flows)
        z_res = [r - z1 for r, z1 in zip(z_res, res.flows)]
    part_flows.append(tuple(z_res))

    parts = [_matrix_from_flows(inst.m, inst.n, fl) for fl in part_flows]
    total = IntMatrix.zeros(inst.m, inst.n)
    for part in parts:
        total = total.add(part)
        _check_sign_consistent(a, part)
        try:
            circulation_from_matrix(shrunk, part)
        except BoundViolation as exc:
            raise InternalError(f"part violates shrunk bounds: {exc}") from exc
    if total.rows != a.rows:
        raise InternalError("parts do not add back up to the input matrix")
    counted = Counter(parts)
    grouped = tuple(
        (mat, counted[mat]) for mat in sorted(counted, key=lambda mtx: mtx.rows)
    )
    return Decomposition(parts=grouped, k=k)


def _validate_k_regular(a: IntMatrix, k: int) -> None:
    if a.m != a.n:
        raise NotKRegular(f"matrix must be square, got {a.m}x{a.n}")
    for i, j, v in a.cells():
        if v not in (-1, 0, 1):
            raise NotKRegular(f"entry ({i},{j}) = {v} not in {{-1, 0, 1}}")
    n = a.n
    row_sums, col_sums = [], []
    for i in range(1, n + 1):
        h = v = 0
        for j in range(1, n + 1):
            h += a.at(i, j)
            if not 0 <= h <= k:
                raise NotKRegular(f"row {i} prefix sum through column {j} is {h}, outside [0, {k}]")
            v += a.at(j, i)
            if not 0 <= v <= k:
                raise NotKRegular(f"column {i} prefix sum through row {j} is {v}, outside [0, {k}]")
        row_sums.append(h)
        col_sums.append(v)
    for i, h in enumerate(row_sums, start=1):
        if h != k:
            raise NotKRegular(f"row {i} sums to {h}, expected {k}")
    for j, v in enumerate(col_sums, start=1):
        if v != k:
            raise NotKRegular(f"column {j} sums to {v}, expected {k}")


def decompose_k_regular_asm(a: IntMatrix, k: int) -> list[IntMatrix]:
    """Split a k-regular matrix into k alternating sign matrices.

    The input must be a (0, +-1) square matrix whose prefix sums stay in
    [0, k] and whose line sums all equal k.  The parts have pairwise
    disjoint supports and add up to the input.
    """
    from .asmkit import k_regular_instance

    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    _validate_k_regular(a, k)
    dec = decompose(k_regular_instance(a.n, k), a, k)
    parts = dec.matrices()
    used: set[tuple[int, int]] = set()
    for part in parts:
        for i, j, v in part.cells():
            if v != 0:
                if (i, j) in used:
                    raise InternalError(f"supports overlap at ({i},{j})")
                used.add((i, j))
    return parts
