"""Equitable integer decomposition of a matrix into k bounded parts.

Given a matrix A meeting an instance's bounds, ``decompose`` writes
A = A_1 + ... + A_k where every part lies within [floor(z* / k),
ceil(z* / k)] on every arc, z* being A's circulation: each entry, row
prefix sum, column prefix sum and the total of a part is A's value divided
by k, rounded one way or the other.  That one bound implies the rest: a
part never has an entry of opposite sign to A's, and it meets the instance
shrunk by k (lower bounds divided by k and floored, upper bounds divided by
k and ceiled).

A is checked once, and one network is built with z* as its only
circulation.  Every step replaces its bounds: with r parts still owed and
residual z, the step's part is any integer circulation within

    floor(z / r)  <=  z_1  <=  ceil(z / r)

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
    matrix_from_circulation,
    min_cost_circulation,
    network_from_bounds,
)
from .core import IntMatrix, PbmInstance, fin
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
    """Divide a valid instance's bounds by k: lower bounds floored, upper ceiled.

    The result needs no re-validation: lo <= hi gives floor(lo / k) <=
    ceil(hi / k), and infinities pass through on the side they came from.
    """
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")

    def floor_mat(mat):
        return mat.from_rows([[e.floor_div(k) for e in row] for row in mat.rows])

    def ceil_mat(mat):
        return mat.from_rows([[e.ceil_div(k) for e in row] for row in mat.rows])

    return dataclasses.replace(
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


def decompose(inst: PbmInstance, a: IntMatrix, k: int) -> Decomposition:
    """Split a matrix meeting the instance into k equitable parts.

    Every part lies within [floor(z* / k), ceil(z* / k)] on every arc, z*
    being A's circulation: each entry, each row and column prefix sum and
    the total of a part is A's value divided by k, rounded down or up.  So
    parts agree in sign with A and meet the instance shrunk by k.

    Raises InfeasibleInput when the matrix does not meet the instance's
    bounds; any failure after that point is an InternalError.

    Why a part always exists: with r parts owed for the residual z, the
    box [floor(z / r), ceil(z / r)] contains the circulation z / r, and a
    network matrix makes the box hold an integer circulation too.  By
    induction r floor(z* / k) <= z <= r ceil(z* / k), so z / r and with
    it the whole box lie within [floor(z* / k), ceil(z* / k)].  An empty
    box would surface as a cut, an InternalError.
    """
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    try:
        z_star = circulation_from_matrix(inst, a).flows
    except BoundViolation as exc:
        raise InfeasibleInput(str(exc)) from exc
    exact = [fin(z) for z in z_star]
    net = network_from_bounds(inst.m, inst.n, exact, exact)
    z_res = list(z_star)
    parts: list[IntMatrix] = []
    for owed in range(k, 1, -1):
        step = dataclasses.replace(
            net,
            lower=tuple(z // owed for z in z_res),
            upper=tuple(-(-z // owed) for z in z_res),
        )
        res = min_cost_circulation(step)
        if isinstance(res, CutWitness):
            raise InternalError("peeling step found no part; the box should never be empty")
        parts.append(matrix_from_circulation(net, res))
        z_res = [r - z1 for r, z1 in zip(z_res, res.flows)]
    parts.append(matrix_from_circulation(net, Circulation(tuple(z_res))))

    shrunk = shrink_instance(inst, k)
    total = IntMatrix.zeros(inst.m, inst.n)
    for part in parts:
        total = total.add(part)
        try:
            flows = circulation_from_matrix(shrunk, part).flows
        except BoundViolation as exc:
            raise InternalError(f"part violates shrunk bounds: {exc}") from exc
        for arc_id, (z, z1) in enumerate(zip(z_star, flows)):
            if not z // k <= z1 <= -(-z // k):
                raise InternalError(
                    f"part has {z1} on arc {net.arc_tag(arc_id)}, outside the equitable "
                    f"[{z // k}, {-(-z // k)}]"
                )
    if total.rows != a.rows:
        raise InternalError("parts do not add back up to the input matrix")
    counted = Counter(parts)
    grouped = tuple(
        (mat, counted[mat]) for mat in sorted(counted, key=lambda mtx: mtx.rows)
    )
    return Decomposition(parts=grouped, k=k)


def decompose_k_regular_asm(a: IntMatrix, k: int) -> list[IntMatrix]:
    """Split a k-regular matrix into k alternating sign matrices.

    The input must be a square matrix that ``k_regular_instance`` admits:
    entries in {0, +-1}, prefix sums in [0, k] and all line sums k.  The
    parts add up to the input and have pairwise disjoint supports: a part's
    entry lies within floor(a / k)..ceil(a / k), a being A's entry there.
    For k >= 2 that range is 0..1 when a = 1, -1..0 when a = -1 and 0 when
    a = 0, so each nonzero entry of A goes whole to exactly one part.
    """
    from .asmkit import k_regular_instance

    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    if a.m != a.n:
        raise NotKRegular(f"matrix must be square, got {a.m}x{a.n}")
    try:
        dec = decompose(k_regular_instance(a.n, k), a, k)
    except InfeasibleInput as exc:
        raise NotKRegular(str(exc)) from exc
    return dec.matrices()
