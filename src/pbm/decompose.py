"""Equitable integer decomposition of a matrix into k bounded parts.

Given a matrix A meeting an instance's bounds, ``decompose`` writes
A = A_1 + ... + A_k where every part lies within [floor(z* / k),
ceil(z* / k)] on every arc, z* being A's circulation: each entry, row
prefix sum, column prefix sum and the total of a part is A's value divided
by k, rounded one way or the other.  That one bound implies the rest: a
part never has an entry of opposite sign to A's, and it meets the instance
shrunk by k (lower bounds divided by k and floored, upper bounds divided by
k and ceiled).

A is checked once against the instance, and no network of the instance
is built: each solve and the final check work on a box instance, all
finite, around the flows at hand.  The work splits pieces: a piece is a
circulation that still owes some number of parts, and equal pieces owing
as many are kept once, with a multiplicity.  z* starts as one piece
owing k.  Each pass splits every piece owing the most, r, into one owing
s and one owing r - s:

* when r is a power of two, s = r / 2, and one linear pass over the
  piece's entries halves it, with no solve: the odd entries pair up along
  their rows and their columns, and each pair takes one +1 over the
  halves rounded down.  This is an Euler partition of the odd arcs (Gabow
  1976) that skips the runs of prefix arcs between two odd entries;
* otherwise s is r's lowest 1-bit, and one min-cost solve on the box

      floor(z / q)  <=  z_1  <=  ceil(z / q),    q = r / s odd,

  peels off the piece z_1 owing s, leaving z - z_1 owing r - s.

Only z* and the rest of a peel owe a number that is no power of two, and
each peel drops one 1-bit, so a decomposition takes popcount(k) - 1
solves, and the work grows with log k and the distinct parts, not with k.
When k is a power of two, no network is built at all.

``decompose_k_regular_asm`` specializes this to nonnegative-prefix matrices
with all line sums k, whose parts are then alternating sign matrices with
pairwise disjoint supports.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain, compress, filterfalse, repeat
from operator import add, and_, floordiv, mul, rshift, sub

from .circulation import (
    Circulation,
    CutWitness,
    build_network,
    checked_matrix,
    circulation_from_matrix,
    min_cost_circulation,
)
from .core import ExtInt, ExtMatrix, IntMatrix, PbmInstance
from .errors import BadParams, BoundViolation, InfeasibleInput, InternalError, NotKRegular

__all__ = [
    "Decomposition",
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
        # cell by cell, the sum over the parts, each one's entries times its multiplicity
        scaled = (
            chain.from_iterable(mat.rows) if mult == 1
            else map(mul, chain.from_iterable(mat.rows), repeat(mult))
            for mat, mult in self.parts
        )
        acc = [*map(sum, zip(*scaled))]
        return IntMatrix(m, n, tuple(tuple(acc[k : k + n]) for k in range(0, m * n, n)))


def _halve(m: int, n: int, z: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split an integer circulation into two within floor(z / 2)..ceil(z / 2).

    Only A's entries, the m x n matrix z spells, are read and chosen.  The
    first half takes floor(a / 2) on every entry a and 1 more on some odd
    ones.  Its prefix through an entry of a row is floor(H / 2) or
    ceil(H / 2), H being A's prefix there, exactly when the +1s among the
    row's odd entries so far are half of them, rounded: when the row's 1st
    and 2nd odd entries take one +1 between them, its 3rd and 4th one, and
    so on.  So an odd entry whose row prefix is even closes a row pair with
    the odd entry before it; columns pair up alike by their prefixes.  Each
    odd entry has at most one row mate and one column mate, so the pairs
    chain into paths and cycles that alternate row and column pairs, and
    walking each one with the +1 on every other entry gives every pair one
    +1.  Cycles are even.  A path ends where an entry has no row mate (a
    row end, the last odd entry of its row) or no column mate (a column
    end).  With r row ends, the half's total is (T - r) / 2 plus the +1s on
    the row ends, T being A's total, and likewise by columns.  A path with
    two row ends or two column ends puts one +1 on its two ends; one with a
    row end and a column end, as a lone odd entry is, puts the same on
    both, so those paths take the +1 in turn, and the total stays within
    floor(T / 2)..ceil(T / 2).  The half's prefix sums and total are summed
    from its entries, so it conserves, and so does the rest, z minus it.
    Linear in the cells, with one Python step per odd entry.
    """
    mn = m * n
    entries = z[2 * mn : 3 * mn]
    odd = [*compress(range(mn), map(and_, entries, repeat(1)))]
    mates = []
    # row by row, then column by column (a stable sort keeps each column's cells in order),
    # an odd entry whose prefix is even closes a pair with the odd entry before it
    for cells, prefixes in ((odd, z), (sorted(odd, key=n.__rmod__), z[mn : 2 * mn])):
        mate = {}
        for k in cells:
            if prefixes[k] & 1:
                opener = k
            else:
                mate[k] = opener
                mate[opener] = k
        mates.append(mate)
    row_mate, column_mate = mates

    first = [*map(rshift, entries, repeat(1))]
    seen = bytearray(mn)
    mixed = 1  # the +1 of the next path with one row end and one column end
    row_ends = filterfalse(row_mate.__contains__, odd)
    column_ends = filterfalse(column_mate.__contains__, odd)
    for v in chain(row_ends, column_ends, odd):
        if seen[v]:
            continue
        # a column end leaves by its row mate; a row end, a lone entry and a
        # cycle leave by the column mate
        from_row_end = v not in row_mate
        if v in column_mate or from_row_end:
            there, back = column_mate, row_mate
        else:
            there, back = row_mate, column_mate
        c = mixed if from_row_end else 1
        while not seen[v]:
            seen[v] = 1
            first[v] += c
            w = there.get(v)
            if w is None:
                mixed ^= from_row_end
                break
            seen[w] = 1
            first[w] += 1 - c
            v = back.get(w)
            if v is None:
                break

    # the half's prefix sums, row by row and column by column, then its total
    rows = map(accumulate, map(first.__getitem__, map(slice, range(0, mn, n), range(n, mn + 1, n))))
    columns = map(accumulate, map(first.__getitem__, map(slice, range(n), repeat(mn), repeat(n))))
    half = (*chain.from_iterable(rows), *chain.from_iterable(zip(*columns)), *first, sum(first))
    return half, tuple(map(sub, z, half))


def _box(m: int, n: int, z: tuple[int, ...], q: int) -> PbmInstance:
    """The m x n instance with bounds floor(z / q)..ceil(z / q) on every arc, all finite."""
    mn = m * n
    low = tuple(map(floordiv, z, repeat(q)))
    # (v + q - 1) // q is ceil(v / q) for every integer v
    high = tuple(map(floordiv, map(add, z, repeat(q - 1)), repeat(q)))
    finite = (0,) * mn
    (phi1, phi2, f), (gamma1, gamma2, g) = (
        [ExtMatrix(m, n, bounds[s : s + mn], finite) for s in range(0, 3 * mn, mn)]
        for bounds in (low, high)
    )
    alpha, beta = ExtInt(0, low[-1]), ExtInt(0, high[-1])
    return PbmInstance(m, n, phi1, gamma1, phi2, gamma2, f, g, alpha, beta)


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
    needs no solve: pairing the odd entries along rows and columns gives
    a half that takes ceil(z / 2) on some arcs and floor(z / 2) elsewhere,
    and it conserves, being a matrix's circulation (see ``_halve``).  The
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
    m, n = inst.m, inst.n
    pieces: defaultdict[int, Counter] = defaultdict(Counter, {k: Counter({z_star: 1})})
    while (owed := max(pieces)) > 1:
        # half of a power of two, else the lowest 1-bit: q is 2, or odd and at least 3
        share = owed // 2 if owed & (owed - 1) == 0 else owed & -owed
        q = owed // share
        for z, mult in pieces.pop(owed).items():
            if q == 2:
                first, rest = _halve(m, n, z)
            else:
                res = min_cost_circulation(build_network(_box(m, n, z, q)))
                if isinstance(res, CutWitness):
                    raise InternalError("peeling step found no part; the box should never be empty")
                first, rest = res.flows, tuple(map(sub, z, res.flows))
            pieces[share][first] += mult
            pieces[owed - share][rest] += mult

    # No solver checks a part, and halves and rests come from no solve.  One
    # ``checked_matrix`` of each distinct part against the box instance
    # floor(z* / k)..ceil(z* / k) proves it all: distinct parts are distinct
    # matrices, and the box lies within the shrunk bounds.
    box = _box(m, n, z_star, k)
    parts = {checked_matrix(box, Circulation(z)): mult for z, mult in pieces[1].items()}
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

    if a.m != a.n:
        raise NotKRegular(f"matrix must be square, got {a.m}x{a.n}")
    try:
        dec = decompose(k_regular_instance(a.n, k), a, k)
    except InfeasibleInput as exc:
        raise NotKRegular(str(exc)) from exc
    return dec.matrices()
