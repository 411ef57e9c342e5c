"""Sign-consistent integer decomposition of a matrix into k bounded parts.

Given a matrix A meeting an instance's bounds, ``decompose`` writes
A = A_1 + ... + A_k where every part meets the instance shrunk by k (lower
bounds divided by k and floored, upper bounds divided by k and ceiled) and
is sign-consistent with A: parts never have an entry of opposite sign to
the corresponding entry of A.

A is checked once, and one network is built from the shrunk arc bounds
[l', u'], tightened on the entry arcs to the signs of A's entries.  Every
part is peeled from that network in plain integers: with r parts still
owed after a step and residual z, the step's part is any integer
circulation within

    max(l', z - r u')  <=  z_1  <=  min(u', z - r l')

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
    instance_arc_bounds,
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

    Why a part always exists: the network's clamped bounds [L, U] meet
    k L <= z* <= k U on every arc, z* being A's circulation.  Finite
    bounds do because A meets the instance; infinite ones clamp to +-K,
    and K exceeds every |z*| (``extra_finite`` adds the sum of |z*|).
    So with r + 1 parts owed for the residual z, each clamped box still
    contains z / (r + 1), and (r + 1) L <= z <= (r + 1) U carries over to
    z - z_1.  By integrality of circulation polyhedra an integer part
    exists; an empty box surfaces as a cut or a failed flow check, both
    InternalErrors.
    """
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    try:
        z_star = circulation_from_matrix(inst, a).flows
    except BoundViolation as exc:
        raise InfeasibleInput(str(exc)) from exc
    shrunk = shrink_instance(inst, k)
    lo, up = instance_arc_bounds(shrunk)
    mn = inst.m * inst.n
    for arc_id in range(2 * mn, 3 * mn):
        if z_star[arc_id] >= 0:
            lo[arc_id] = max(lo[arc_id], fin(0))
        if z_star[arc_id] <= 0:
            up[arc_id] = min(up[arc_id], fin(0))
    net = network_from_bounds(
        inst.m, inst.n, lo, up, extra_finite=sum(abs(z) for z in z_star)
    )
    z_res = list(z_star)
    parts: list[IntMatrix] = []
    for owed in range(k - 1, 0, -1):
        step = dataclasses.replace(
            net,
            lower=tuple(max(lo, z - owed * hi) for lo, hi, z in zip(net.lower, net.upper, z_res)),
            upper=tuple(min(hi, z - owed * lo) for lo, hi, z in zip(net.lower, net.upper, z_res)),
        )
        res = min_cost_circulation(step)
        if isinstance(res, CutWitness):
            raise InternalError("peeling step found no part; the box should never be empty")
        parts.append(matrix_from_circulation(net, res))
        z_res = [r - z1 for r, z1 in zip(z_res, res.flows)]
    parts.append(matrix_from_circulation(net, Circulation(tuple(z_res))))

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


def decompose_k_regular_asm(a: IntMatrix, k: int) -> list[IntMatrix]:
    """Split a k-regular matrix into k alternating sign matrices.

    The input must be a square matrix that ``k_regular_instance`` admits:
    entries in {0, +-1}, prefix sums in [0, k] and all line sums k.  The
    parts have pairwise disjoint supports and add up to the input.
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
    parts = dec.matrices()
    used: set[tuple[int, int]] = set()
    for part in parts:
        for i, j, v in part.cells():
            if v != 0:
                if (i, j) in used:
                    raise InternalError(f"supports overlap at ({i},{j})")
                used.add((i, j))
    return parts
