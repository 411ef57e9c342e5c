"""Equitable integer decomposition of a matrix into k bounded parts.

Given a matrix A meeting an instance's bounds, ``decompose`` writes
A = A_1 + ... + A_k where every part lies within [floor(z* / k),
ceil(z* / k)] on every arc, z* being A's circulation: each entry, row
prefix sum, column prefix sum and the total of a part is A's value divided
by k, rounded one way or the other.  That one bound implies the rest: a
part never has an entry of opposite sign to A's, and it meets the instance
shrunk by k (lower bounds divided by k and floored, upper bounds divided by
k and ceiled).

A is checked once, and one network is built from the instance; each solve
and each check replaces its bounds by a box around the flows at hand.
The work splits pieces: a piece is a circulation that still owes some
number of parts, and equal pieces owing as many are kept once, with a
multiplicity.  z* starts as one piece owing k.  Each pass splits every
piece owing the most, r, into one owing s and one owing r - s:

* when r is a power of two, s = r / 2, and an Euler partition of the
  piece's odd arcs (Gabow 1976) halves it in one linear pass, with no
  solve;
* otherwise s is r's lowest 1-bit, and one min-cost solve on the box

      floor(z / q)  <=  z_1  <=  ceil(z / q),    q = r / s odd,

  peels off the piece z_1 owing s, leaving z - z_1 owing r - s.

Only z* and the rest of a peel owe a number that is no power of two, and
each peel drops one 1-bit, so a decomposition takes popcount(k) - 1
solves, and the work grows with log k and the distinct parts, not with k.

``decompose_k_regular_asm`` specializes this to nonnegative-prefix matrices
with all line sums k, whose parts are then alternating sign matrices with
pairwise disjoint supports.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import sub

from .circulation import (
    Circulation,
    CutWitness,
    Network,
    build_network,
    check_circulation,
    circulation_from_matrix,
    matrix_from_circulation,
    min_cost_circulation,
)
from .core import IntMatrix, PbmInstance
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
        """The sum of all k parts: each distinct part times its multiplicity."""
        m, n = self.parts[0][0].m, self.parts[0][0].n
        acc = [0] * (m * n)
        for mat, mult in self.parts:
            acc = [a + mult * v for a, v in zip(acc, chain(*mat.rows))]
        return IntMatrix(m, n, tuple(tuple(acc[k : k + n]) for k in range(0, m * n, n)))


def shrink_instance(inst: PbmInstance, k: int) -> PbmInstance:
    """Divide a valid instance's bounds by k: lower bounds floored, upper ceiled.

    The result needs no re-validation: lo <= hi gives floor(lo / k) <=
    ceil(hi / k), and infinities pass through on the side they came from.
    """
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    return dataclasses.replace(
        inst,
        phi1=inst.phi1.floor_div(k),
        gamma1=inst.gamma1.ceil_div(k),
        phi2=inst.phi2.floor_div(k),
        gamma2=inst.gamma2.ceil_div(k),
        f=inst.f.floor_div(k),
        g=inst.g.ceil_div(k),
        alpha=inst.alpha.floor_div(k),
        beta=inst.beta.ceil_div(k),
    )


def _halve(net: Network, z: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split an integer circulation into two within floor(z / 2)..ceil(z / 2).

    The first half takes floor(z / 2) on every arc and 1 more on each odd
    arc that a closed trail over the odd arcs runs forwards.  Every node
    meets an even number of odd arcs, so a walk that leaves a node by an
    unwalked odd arc can leave every other node it enters and stops only
    where it started.  Where a trail passes a node, the arcs by which it
    enters and leaves add as much to the half's inflow as to its outflow,
    so the half conserves, and with it the second half, z minus the first.
    Iterative and linear in the arcs.
    """
    tail, head = net.tail, net.head
    first = [v >> 1 for v in z]
    odd_arcs: list[list[int]] = [[] for _ in range(net.node_count)]
    for a, v in enumerate(z):
        if v & 1:
            odd_arcs[tail[a]].append(a)
            odd_arcs[head[a]].append(a)
    walked = bytearray(len(z))
    for start in range(net.node_count):
        v, untried = start, odd_arcs[start]
        while untried:
            a = untried.pop()
            if walked[a]:
                continue
            walked[a] = 1
            if tail[a] == v:
                first[a] += 1
                v = head[a]
            else:
                v = tail[a]
            untried = odd_arcs[v]
    return tuple(first), tuple(v - h for v, h in zip(z, first))


def _box(net: Network, z: tuple[int, ...], q: int) -> Network:
    """The network with bounds floor(z / q)..ceil(z / q) on every arc."""
    return dataclasses.replace(
        net, lower=tuple(v // q for v in z), upper=tuple(-(-v // q) for v in z)
    )


def decompose(inst: PbmInstance, a: IntMatrix, k: int) -> Decomposition:
    """Split a matrix meeting the instance into k equitable parts.

    Every part lies within [floor(z* / k), ceil(z* / k)] on every arc, z*
    being A's circulation: each entry, each row and column prefix sum and
    the total of a part is A's value divided by k, rounded down or up.  So
    parts agree in sign with A and meet the instance shrunk by k.

    Raises InfeasibleInput when the matrix does not meet the instance's
    bounds; any failure after that point is an InternalError.

    Why a part always exists: every piece owing r lies within
    [r floor(z* / k), r ceil(z* / k)], as z*, owing k, does.  Split such a
    piece z into shares s and r - s, with q = r / s.  The circulation z / q
    lies within [s floor(z* / k), s ceil(z* / k)], whose ends are integers,
    so the box [floor(z / q), ceil(z / q)] lies there too, and a network
    matrix makes the box hold an integer circulation.  A peel's solve finds
    one; an empty box would surface as a cut, an InternalError.  Halving
    needs no solve: the flows in and out of a node add up to the same
    number, so every node meets an even number of odd arcs, the odd arcs
    fall into closed trails, and running along them gives one half
    ceil(z / 2) on some arcs and floor(z / 2) elsewhere, conserving.  The
    rest, z minus the share, lies within [z - ceil(z / q), z - floor(z / q)];
    both ends grow with z, and at z's ends they are (r - s) floor(z* / k)
    and (r - s) ceil(z* / k), so the rest keeps the bound.  A piece owing 1
    is a part.
    """
    if k < 1:
        raise BadParams(f"k must be a positive integer, got {k}")
    try:
        z_star = circulation_from_matrix(inst, a).flows
    except BoundViolation as exc:
        raise InfeasibleInput(str(exc)) from exc
    net = build_network(inst)
    pieces: defaultdict[int, Counter] = defaultdict(Counter, {k: Counter({z_star: 1})})
    while (owed := max(pieces)) > 1:
        # half of a power of two, else the lowest 1-bit: q is 2, or odd and at least 3
        share = owed // 2 if owed & (owed - 1) == 0 else owed & -owed
        q = owed // share
        for z, mult in pieces.pop(owed).items():
            if q == 2:
                first, rest = _halve(net, z)
            else:
                res = min_cost_circulation(_box(net, z, q))
                if isinstance(res, CutWitness):
                    raise InternalError("peeling step found no part; the box should never be empty")
                first, rest = res.flows, tuple(map(sub, z, res.flows))
            pieces[share][first] += mult
            pieces[owed - share][rest] += mult

    # No solver checks a part: an unpriced solve returns its flows unchecked,
    # and halves and rests come from no solve.  One check of each distinct
    # part as a circulation in the box floor(z* / k)..ceil(z* / k) proves it
    # all: a conserving flow vector is its matrix's circulation, so distinct
    # parts are distinct matrices, and the box lies within the shrunk bounds.
    box = _box(net, z_star, k)
    parts = {}
    for z, mult in pieces[1].items():
        check_circulation(box, Circulation(z))
        parts[matrix_from_circulation(net, Circulation(z))] = mult
    dec = Decomposition(tuple(sorted(parts.items(), key=lambda part: part[0].rows)), k)
    if dec.total().rows != a.rows:
        raise InternalError("parts do not add back up to the input matrix")
    return dec


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
