"""Exact integer circulations on the prefix-sum network of an instance.

The network for an m x n instance has 2mn + 2 nodes: one node per cell in a
horizontal layer and in a vertical layer, plus one hub per layer.  It has
3mn + 1 arcs, whose bounds are kept as flat tuples indexed by arc id:

* A1 arcs carry the horizontal prefix sums of each row, bounded by
  [phi1, gamma1]; the arc for (i, n) runs from the horizontal hub;
* A2 arcs carry the vertical prefix sums, bounded by [phi2, gamma2]; the
  arc for (m, j) runs into the vertical hub;
* N arcs connect the two layers cell by cell and carry the matrix entries,
  bounded by [f, g];
* one return arc a0 from the vertical hub to the horizontal hub carries the
  total sum, bounded by [alpha, beta].

Conservation forces every circulation to spell out a matrix together with
all its prefix sums, so instances are feasible exactly when the network
admits an integer circulation.  Infinite bounds are replaced by +-K for a K
chosen so large that no optimal or violating structure can depend on it
(K exceeds twice the sum of all finite bound magnitudes).

``build_network`` is the one network builder, and every network is the
network of the instance it carries.  It reads the instance's flat bound
tables, ints and tags, and clamps each infinite bound to tag * K; arc
ends follow from (m, n) alone, and only a flow's residual graph lists them.

Every solve first computes each line's reach, the interval of values of
a prefix from which the rest of its row or column can still be completed,
in one pass per direction: the columns over the row windows, the rows
over the column windows.  A reach that comes out empty shows a single
line that contradicts its windows: the pass that finds it also names the
chain of bounds that emptied it, and the solve reads the cut off that
chain and returns it, with no flow at all.  Otherwise the solve starts
from a greedy guess that lies inside every arc bound, with each priced
arc at the bound its cost favours.  The guess solves the rows top to
bottom, each as one exact line against the column prefixes already set
above it, kept inside the column reaches.  So a feasible single line and
every feasible ASM instance start as a circulation, unless the total
window clamps the sum, and an unpriced guess that conserves is the
answer, returned before any residual graph is built.  Otherwise the
solve runs one primal-dual loop on one residual graph, two edges per
arc.  The guess leaves a pseudoflow: excess at some nodes, and deficits
at others, which are the sinks.  Each round moves excess to them by
push-relabel over the edges of zero reduced cost.  A round that falls
short runs one Dijkstra from the excess, stopped at the nearest sink,
and moves only the potentials of the nodes it settled before that sink,
unless no sink is in reach.  The other nodes keep theirs, which changes
no reduced cost, so the next round refilters only the edges that meet
the moved nodes.  A feasibility question has no prices, so it is the
case in which one round does all the work, over the whole residual
graph; it stops at the first node that holds excess and can no longer
reach a sink.  An infeasible network yields a node set whose entering
capacity is below its leaving demand: the line's chain, or the nodes
that the stranded excess cannot reach (this holds whatever start and
potentials the flow grew from).  The witness names the set its proof
built, the chain or the nodes the excess reaches, and says which side
of the cut that set is.
``make_cut_witness`` checks the cut's deficit again, summed over the arcs
that meet the named set, and ``cut_to_certificate`` hands the named set's
cells, as one set of cell indices per layer, straight to the strong-pair
sums of the violated inequality, and returns the pair of cell subsets
with those sums as a ``Certificate``.  So a cut that names a node or two
costs what those nodes cost, whatever the grid.

An optimum is unbounded exactly when some open side, a bound clamped to
+-K, has negative reduced cost under the optimal potentials; a ``Ray``
solved on the recession instance proves it.  All arithmetic is exact
integer arithmetic.

``checked_matrix`` is the one check of a solver's flows: they must be the
circulation that ``circulation_from_matrix`` rebuilds from their matrix
against the instance's true bounds.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, replace
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, le, mod, neg, not_, sub
from typing import Mapping, Sequence

from .core import ExtInt, ExtMatrix, IntMatrix, PbmInstance, SubsetMask
from .errors import BoundViolation, DimensionMismatch, InternalError
from . import strongpair

__all__ = [
    "Network",
    "Certificate",
    "Circulation",
    "CutWitness",
    "Ray",
    "build_network",
    "checked_matrix",
    "make_cut_witness",
    "min_cost_circulation",
    "matrix_from_circulation",
    "circulation_from_matrix",
    "cut_to_certificate",
    "network_to_dot",
]


@dataclass(frozen=True, slots=True)
class Network:
    """The circulation network of an m x n instance.

    ``lower`` and ``upper`` are indexed by arc id; the bounds are integers,
    infinities already clamped to +-``big_k``.  Arc ends follow from
    (m, n): ``tail`` and ``head`` compute them on each read, and no solve
    reads them.  ``instance`` is the instance ``build_network`` read;
    ``cut_to_certificate`` and the recession solve of an unbounded optimum
    read its tables.
    """

    m: int
    n: int
    lower: tuple[int, ...]
    upper: tuple[int, ...]
    big_k: int
    instance: PbmInstance

    @property
    def node_count(self) -> int:
        return 2 * self.m * self.n + 2

    @property
    def tail(self) -> tuple[int, ...]:
        return tuple(_ends(self.m, self.n)[0])

    @property
    def head(self) -> tuple[int, ...]:
        return tuple(_ends(self.m, self.n)[1])

    @property
    def v1_hub(self) -> int:
        return 2 * self.m * self.n

    @property
    def v2_hub(self) -> int:
        return 2 * self.m * self.n + 1

    def v1_node(self, i: int, j: int) -> int:
        return (i - 1) * self.n + (j - 1)

    def v2_node(self, i: int, j: int) -> int:
        return self.m * self.n + (i - 1) * self.n + (j - 1)

    def n_arc_id(self, i: int, j: int) -> int:
        return 2 * self.m * self.n + (i - 1) * self.n + (j - 1)

    @property
    def a0_id(self) -> int:
        return 3 * self.m * self.n

    def arc_tag(self, arc_id: int) -> tuple:
        """("A1", i, j), ("A2", i, j), ("N", i, j) or ("a0",) for an arc id."""
        if arc_id == self.a0_id:
            return ("a0",)
        layer, k = divmod(arc_id, self.m * self.n)
        return (("A1", "A2", "N")[layer], k // self.n + 1, k % self.n + 1)


@dataclass(frozen=True, slots=True)
class Circulation:
    """Arc flows indexed by arc id."""

    flows: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class CutWitness:
    """A node set W with entering capacity strictly below leaving demand.

    W is ``nodes``, the named set, or V minus ``nodes`` when ``complement``
    is true.  ``deficit`` is (sum of upper bounds entering W) minus (sum of
    lower bounds leaving W) and is negative by construction.
    """

    nodes: frozenset[int]
    complement: bool
    deficit: int


@dataclass(frozen=True, slots=True)
class Ray:
    """An integer direction D that proves an optimum unbounded.

    Each entry, prefix sum and the total of D moves by at most 1, and only
    toward a side the instance leaves open, so adding t * D, t >= 0, to a
    feasible matrix keeps every bound and adds t * ``cost`` < 0 to the
    cost.
    """

    direction: IntMatrix
    cost: int


def _ends(m: int, n: int) -> tuple[list[int], list[int]]:
    """The tails and the heads of the m x n network's arcs, by arc id; one int object per node."""
    mn = m * n
    v1, v2 = [*range(mn)], [*range(mn, 2 * mn)]
    hub1, hub2 = 2 * mn, 2 * mn + 1
    a1_tails = [*v1[1:], hub1]
    a1_tails[n - 1 :: n] = [hub1] * m
    return [*a1_tails, *v2, *v1, hub2], [*v1, *v2[n:], *repeat(hub2, n), *v2, hub1]


def build_network(inst: PbmInstance) -> Network:
    """The circulation network of an instance: the one network builder.

    K is 1 + 2 * sum of |finite bounds| + mn.  Every finite bound is
    smaller than K in magnitude, so a clamped bound, value + tag * K,
    equals +-K exactly when the true bound is infinite.  An infinite cell
    has value 0, so it adds nothing to the finite mass, and only the
    infinite bounds need clamping.  Arc ends depend only on (m, n), in
    the layout that ``_ends``, ``_balances`` and ``make_cut_witness`` read.
    """
    m, n, mn = inst.m, inst.n, inst.m * inst.n
    lows = (inst.phi1, inst.phi2, inst.f)
    highs = (inst.gamma1, inst.gamma2, inst.g)
    finite_mass = sum([sum(map(abs, t.values)) for t in lows + highs])
    big_k = 1 + 2 * (finite_mass + abs(inst.alpha.value) + abs(inst.beta.value)) + mn

    def clamped(tables: tuple[ExtMatrix, ...], total: ExtInt) -> tuple[int, ...]:
        values = [*chain(*(t.values for t in tables)), total.value]
        tags = [*chain(*(t.tags for t in tables)), total.tag]
        # an infinite bound has value 0, so only the infinite ones change
        for a in compress(range(len(tags)), tags):
            values[a] = tags[a] * big_k
        return tuple(values)

    net = Network(
        m=m,
        n=n,
        lower=clamped(lows, inst.alpha),
        upper=clamped(highs, inst.beta),
        big_k=big_k,
        instance=inst,
    )
    # clamping keeps the order of the bounds, so only an unvalidated instance fails here
    if not all(map(le, net.lower, net.upper)):
        a = next(a for a, (lo, hi) in enumerate(zip(net.lower, net.upper)) if lo > hi)
        layer, k = divmod(a, mn)
        lo, hi = (inst.alpha, inst.beta) if a == 3 * mn else (
            ExtInt(t.tags[k], t.values[k]) for t in (lows[layer], highs[layer])
        )
        raise InternalError(f"empty arc bound interval on arc {net.arc_tag(a)}: [{lo}, {hi}]")
    return net


def make_cut_witness(net: Network, nodes: frozenset[int], complement: bool = False) -> CutWitness:
    """Build a witness, recomputing the deficit; raises unless it is negative.

    W is ``nodes``, or V minus ``nodes`` when ``complement`` is true.  Both
    have the same crossing arcs, so the deficit is summed over the arcs
    incident to the named set alone, found by the fixed (m, n) layout
    that ``_balances`` reads: v1(k) meets A1 arcs k and k - 1 and N arc k,
    v2(k) meets N arc k and A2 arcs k and k - n, and each hub meets the
    return arc and the last prefix arc of every row (v1_hub) or column
    (v2_hub).  The set of those arcs may hold one that the named set does
    not meet; only an arc with one end on each side counts.  Each arc's
    ends are computed from its id, as ``_ends`` lays them out, so the sum
    reads the network's bounds and nothing that found the set.
    """
    n, mn = net.n, net.m * net.n
    hub1, hub2 = 2 * mn, 2 * mn + 1
    arcs = set()
    for v in nodes:
        arcs.update((v, v - 1, v + 2 * mn) if v < mn else (v + mn, v, v - n) if v < 2 * mn else ())
    arcs.discard(-1)
    if hub1 in nodes:
        arcs.update(range(n - 1, mn, n), (3 * mn,))
    if hub2 in nodes:
        arcs.update(range(2 * mn - n, 2 * mn), (3 * mn,))
    deficit = 0
    for a in arcs:
        if a < mn:
            tail, head = a + 1 if (a + 1) % n else hub1, a
        elif a < 2 * mn:
            tail, head = a, a + n if a < 2 * mn - n else hub2
        else:
            tail, head = (a - 2 * mn, a - mn) if a < 3 * mn else (hub2, hub1)
        head_in = head in nodes
        if (tail in nodes) != head_in:
            # an arc enters W when it enters the named set W, or leaves the named set V minus W
            deficit += net.upper[a] if head_in != complement else -net.lower[a]
    if deficit >= 0:
        raise InternalError(f"cut witness has nonnegative deficit {deficit}")
    return CutWitness(nodes=nodes, complement=complement, deficit=deficit)


class _FlowGraph:
    """Residual graph with paired edges; push-relabel and breadth-first search.

    Arc a, u -> w, is edge 2a, u -> w, with capacity caps[a] and cost
    costs[a], and edge 2a + 1, w -> u, with capacity backs[a] and the
    negated cost; no other edge exists.
    """

    __slots__ = ("adj", "to", "cap", "cost")

    def __init__(self, node_count: int, tails: Sequence[int], heads: Sequence[int],
                 caps: Sequence[int], backs: Sequence[int], costs: Sequence[int]) -> None:
        size = 2 * len(tails)
        self.to = to = [0] * size
        to[0::2], to[1::2] = heads, tails
        self.cap = cap = [0] * size
        cap[0::2], cap[1::2] = caps, backs
        self.cost = cost = [0] * size
        if any(costs):
            cost[0::2], cost[1::2] = costs, map(neg, costs)
        self.adj = adj = [[] for _ in range(node_count)]
        for idx, u, w in zip(range(0, size, 2), tails, heads):
            adj[u].append(idx)
            adj[w].append(idx + 1)

    def distances(self, sources: list[int], adj: list[list[int]], flip: int) -> list[int]:
        """Breadth-first edge counts over ``adj``; len(adj) marks the unreached.

        With ``flip`` 0 the search follows residual edges out of the
        sources; with ``flip`` 1 it runs them backwards and counts the edges
        from each node to the nearest source.
        """
        to, cap = self.to, self.cap
        size = len(adj)
        dist = [size] * size
        for v in sources:
            dist[v] = 0
        queue = list(sources)
        for v in queue:
            d = dist[v] + 1
            for idx in adj[v]:
                w = to[idx]
                if dist[w] == size and cap[idx ^ flip] > 0:
                    dist[w] = d
                    queue.append(w)
        return dist

    def push_relabel(self, adj: list[list[int]], excess: list[int]) -> tuple[int, int, list[int]]:
        """Move excess into the sinks as ``adj`` allows; (pushes, relabels, stranded).

        FIFO push-relabel (Goldberg & Tarjan 1988) over the edges in
        ``adj``, which must hold each listed edge's reverse too; ``excess``
        is updated in place.  The nodes with negative excess, which lack
        flow, are the sinks, at height 0.  A push never drives excess below
        0, so sinks never push, and it queues its target when that node's
        excess turns positive.  Heights stay a valid labelling: no edge of
        ``adj`` with residual capacity drops more than one level.  So a node
        at height len(adj) or more reaches no sink; it keeps its excess, and
        nothing goes back where it came from.  Once per V + E units of
        relabelling work, a backward search from the sinks resets the
        heights to exact distances (Cherkassky & Goldberg 1997).  A relabel
        costs its degree plus 90 units; of 12 to 300, 60 to 150 solved 30x30
        to 120x120 grids fastest.

        Over the full residual graph (``adj is self.adj``) the run stops at
        the first stranded node, one that holds excess at height len(adj)
        or more, and returns the stranded nodes it found then: no residual
        path leads from them to a sink, which is all a cut needs.  Over a
        subset of the edges it runs on until the excess either reaches the
        sinks or is stranded, and returns no stranded nodes.
        """
        to, cap = self.to, self.cap
        size = len(adj)
        stop = adj is self.adj
        budget = work = size + sum(map(len, adj))
        pushes = relabels = 0
        while True:
            if work >= budget:
                work = 0
                unbalanced = [*compress(range(size), excess)]
                height = self.distances([v for v in unbalanced if excess[v] < 0], adj, 1)
                current = [0] * size
                live = [v for v in unbalanced if excess[v] > 0]
                if stop:
                    stranded = [v for v in live if height[v] == size]
                    if stranded:
                        return pushes, relabels, stranded
                queue = deque(v for v in live if height[v] < size)
            if not queue:
                return pushes, relabels, []
            v = queue.popleft()
            e, h, edges, i = excess[v], height[v], adj[v], current[v]
            while True:
                if i == len(edges):
                    relabels += 1
                    work += i + 90
                    h = 1 + min((height[to[idx]] for idx in edges if cap[idx] > 0), default=size)
                    i = 0
                    if h >= size:
                        break
                idx = edges[i]
                c = cap[idx]
                if c > 0 and height[to[idx]] == h - 1:
                    w = to[idx]
                    d = e if e < c else c
                    cap[idx] = c - d
                    cap[idx ^ 1] += d
                    x = excess[w] + d
                    excess[w] = x
                    if 0 < x <= d:
                        queue.append(w)
                    pushes += 1
                    e -= d
                    if e == 0:
                        break
                i += 1
            excess[v], height[v], current[v] = e, h, i
            if stop and e > 0:
                return pushes, relabels, [v]


def _left(values: Sequence[int], n: int) -> list[int]:
    """The value of the cell before each cell in its row, 0 for a row's first cell."""
    out = [0, *values[:-1]]
    out[::n] = [0] * (len(values) // n)
    return out


def _above(values: Sequence[int], n: int) -> list[int]:
    """The value of the cell above each cell in its column, 0 for the first row."""
    return [*repeat(0, n), *values[: len(values) - n]]


def _balances(net: Network, flows: Sequence[int]) -> list[int]:
    """Inflow minus outflow at every node, read off the fixed arc layout.

    v1(i, j) receives row prefix (i, j) and sends entry (i, j) and row
    prefix (i, j - 1); v2(i, j) receives entry (i, j) and column prefix
    (i - 1, j) and sends column prefix (i, j).  The horizontal hub receives
    the total and sends every row's last prefix; the vertical hub receives
    every column's last prefix and sends the total.
    """
    n, mn = net.n, net.m * net.n
    rows, cols, entries, total = flows[:mn], flows[mn : 2 * mn], flows[2 * mn : 3 * mn], flows[3 * mn]
    return [
        *map(sub, map(sub, rows, entries), _left(rows, n)),
        *map(sub, map(add, entries, _above(cols, n)), cols),
        total - sum(rows[n - 1 :: n]),
        sum(cols[mn - n :]) - total,
    ]


def _reach_along(
    lines: "Sequence[range]",
    window: tuple[list[int], list[int], list[int], list[int]],
    crossing: tuple[list[int], list[int], list[int], list[int]],
    f: Sequence[int],
    g: Sequence[int],
) -> "tuple[tuple[list[int], list[int]] | None, tuple[list[int], list[int], bool] | None]":
    """Per cell, the prefix values from which its line can still be completed.

    Each line is a range of cell indices from its last cell to its first.
    ``window`` holds the lines' prefix windows, low and high, and the same
    two tables shifted to each cell's predecessor in the line, [0, 0] at a
    line's first cell.  ``crossing`` holds four such tables for the other
    direction: an entry lies in [f, g] and is the difference of two
    consecutive values there.  Working backward, the reach at the last
    cell is its window; one step back, it is the predecessor's window cut
    down to the values from which some allowed entry leads into the reach.
    The step past a line's first cell must admit the prefix 0.

    Returns (reach, None) with reach = (low, high) per cell when every
    reach is nonempty.  Every reach is a necessary condition, so an empty
    one proves the network infeasible, and the pass then stops and returns
    (None, (chain, crossed, high)).  Each end of a reach is a chain: the
    window bound of the cell where it started, moved by the entry bounds
    of every cell from there to the current one.  At the first cell k
    whose step fails, either k's entry interval is empty, and the chain is
    ([], [k], high), or one end of the next reach, clamped to the
    predecessor's window, passes the other end, a chain that holds the
    cells from its start to k.  ``crossed`` holds the chain cells whose
    crossing bound, not f or g, bound the entry.  ``high`` is True when
    lower bounds push a value above an upper bound: k's crossing low
    above g, or the least value of the chain's last prefix above its
    window; False when upper bounds hold a value below a lower bound.
    """
    win_lo, win_hi, prev_lo, prev_hi = window
    cross_lo, cross_hi, cross_prev_lo, cross_prev_hi = crossing
    reach_lo, reach_hi = [0] * len(win_lo), [0] * len(win_hi)
    lo_end = hi_end = -1  # the cell whose window last clamped each end
    for line in lines:
        lo, hi = win_lo[line[0]], win_hi[line[0]]
        for k in line:
            reach_lo[k], reach_hi[k] = lo, hi
            e_lo, e_hi = cross_lo[k] - cross_prev_hi[k], cross_hi[k] - cross_prev_lo[k]
            if f[k] > e_lo:
                e_lo = f[k]
            if g[k] < e_hi:
                e_hi = g[k]
            lo -= e_hi
            hi -= e_lo
            if prev_lo[k] > lo:
                lo, lo_end = prev_lo[k], k
            if prev_hi[k] < hi:
                hi, hi_end = prev_hi[k], k
            if lo > hi or e_lo > e_hi:
                if e_lo > e_hi:
                    return None, ([], [k], cross_lo[k] - cross_prev_hi[k] > g[k])
                # the end that passed the other was not clamped at k
                high = lo <= prev_hi[k]
                end, step = hi_end if high else lo_end, line.step
                cells = range(end + step if end in line else line[0], k + step, step)
                if high:
                    return None, ([*cells], [c for c in cells if cross_lo[c] - cross_prev_hi[c] > f[c]], True)
                return None, ([*cells], [c for c in cells if cross_hi[c] - cross_prev_lo[c] < g[c]], False)
    return (reach_lo, reach_hi), None


def _line_tables(net: Network) -> tuple:
    """Columns, rows, column windows, row windows, f and g, as the line passes read them.

    Each line is a range of cell indices from its last cell to its first:
    columns bottom-up, rows right to left.  A window holds the lines'
    prefix windows, low and high, and the same two tables shifted to each
    cell's predecessor in the line.
    """
    n, mn = net.n, net.m * net.n
    lower, upper = net.lower, net.upper
    row_lo, row_hi = lower[:mn], upper[:mn]
    col_lo, col_hi = lower[mn : 2 * mn], upper[mn : 2 * mn]
    return (
        [range(mn - n + j, -1, -n) for j in range(n)],
        [range(s + n - 1, s - 1, -1) for s in range(0, mn, n)],
        (col_lo, col_hi, _above(col_lo, n), _above(col_hi, n)),
        (row_lo, row_hi, _left(row_lo, n), _left(row_hi, n)),
        lower[2 * mn : 3 * mn],
        upper[2 * mn : 3 * mn],
    )


def _reach(net: Network) -> "tuple[tuple[list[int], list[int]] | None, CutWitness | None]":
    """(reach, witness): the column reach, or the cut of the first contradictory line.

    The reach is column reach low and high per cell, the one reach
    ``_greedy_start`` reads, and None exactly when the witness is not.

    One pass per direction, each over the other layer's plain windows.
    The column pass comes first, bottom-up, with each entry cut down to
    the differences of consecutive row windows; then the row pass, right
    to left, with each entry cut down to the differences of consecutive
    column windows.  A chain from either pass is the line cut.  When
    neither finds one, any contradiction needs both layers or the total
    window, and the solve finds its cut by flow.
    """
    columns, rows, col_window, row_window, f, g = _line_tables(net)
    col_reach, chain = _reach_along(columns, col_window, row_window, f, g)
    if chain is not None:
        return None, _line_cut(net, chain, True)
    chain = _reach_along(rows, row_window, col_window, f, g)[1]
    if chain is not None:
        return None, _line_cut(net, chain, False)
    return col_reach, None


def _line_cut(net: Network, chain: tuple[list[int], list[int], bool], column: bool) -> CutWitness:
    """The cut that a contradictory line's chain shows, from ``_reach_along``.

    Let S hold the line nodes of the chain's cells and the crossing node
    of each cell in ``crossed``.  In the column pass the prefix arcs run
    down the chain and every N arc runs into it, so the arcs entering S
    carry the upper bounds of the prefix before the chain and of the
    chain's entries, and the arcs leaving S the lower bound of the chain's
    last prefix: S has negative deficit when upper bounds hold a value
    below a lower bound, and the other nodes, V minus S, when lower bounds
    push one above an upper bound.  A1 arcs run right to left and N arcs
    out of the row, so the row pass takes the other side.  Either way the
    witness names S, and says when W is its complement.  An empty entry
    interval makes S the one crossing node; the row pass never meets one,
    since the column pass fails at that cell or before it.
    """
    cells, crossed, high = chain
    mn = net.m * net.n
    line_first, cross_first = (mn, 0) if column else (0, mn)
    named = frozenset({line_first + k for k in cells} | {cross_first + k for k in crossed})
    return make_cut_witness(net, named, high == column)


def _greedy_start(net: Network, reach: tuple[list[int], list[int]]) -> list[int]:
    """Arc flows inside every (clamped) arc bound, conserving where it can.

    Each row and each column is a chain of prefix windows, so the values
    of one prefix from which the rest of its line can still be completed
    form an interval, its reach; ``reach`` is the column reach,
    ``_reach(net)[0]``.

    The rows are solved top to bottom, each as one exact line against the
    column prefixes already set above it.  A cell's entry bounds are its
    entry window cut down to its column reach less the column prefix above
    it.  That never leaves nothing: the prefix above lies in its own reach
    (0 above the first row), from which the column pass found an entry
    that leads into this reach, and the entry picked below stays inside
    these bounds, so every column prefix stays inside its reach.  Under
    these bounds the row's own reach follows from the recurrence of
    ``_reach_along``, right to left; where a step leaves no value inside
    the predecessor's window, the reach collapses to the end of that
    window nearest the values the step gave.  One pass left to right then
    picks each entry, the one pick rule: the value nearest 0 within the
    bounds that keeps the row prefix inside its reach, given the prefix
    before it, or the bound nearer the reach when none does.

    Each column prefix arc carries the one above it plus the entry.  Each
    row prefix arc carries the previous one's value plus the entry,
    clamped into the arc's bounds, and the return arc the sum of the rows'
    last prefix arcs, clamped likewise.  Conservation breaks only at the
    nodes where a clamp bit, and the flow repairs just those imbalances.
    A row whose reach never collapses needs no clamp, so a feasible single
    line, and every feasible ASM and k-regular instance up to 60 x 60
    (k <= 3), starts as a circulation, unless the total window clamps the
    sum.
    """
    n, mn = net.n, net.m * net.n
    lower, upper = net.lower, net.upper
    h_lo, h_hi = lower[:mn], upper[:mn]
    f, g = lower[2 * mn : 3 * mn], upper[2 * mn : 3 * mn]
    c_lo, c_hi = reach
    # the window of the row prefix before each cell: [0, 0] before a row's first cell
    p_lo, p_hi = _left(h_lo, n), _left(h_hi, n)
    b_lo, b_hi, r_lo, r_hi = [0] * mn, [0] * mn, [0] * mn, [0] * mn
    rows: list[int] = []
    entries: list[int] = []
    cols = [0] * n  # cols[k] is the column prefix above cell k; the start's column arcs follow
    total = 0
    for s in range(0, mn, n):
        lo, hi = h_lo[s + n - 1], h_hi[s + n - 1]
        for k in range(s + n - 1, s - 1, -1):
            r_lo[k], r_hi[k] = lo, hi
            v, e_lo, e_hi = cols[k], f[k], g[k]
            x_lo, x_hi = c_lo[k] - v, c_hi[k] - v
            if x_lo < e_lo:
                x_lo = e_lo
            if x_hi > e_hi:
                x_hi = e_hi
            b_lo[k], b_hi[k] = x_lo, x_hi
            lo -= x_hi
            hi -= x_lo
            w_lo, w_hi = p_lo[k], p_hi[k]
            if lo > w_hi:
                lo = hi = w_hi
            elif hi < w_lo:
                lo = hi = w_lo
            else:
                if lo < w_lo:
                    lo = w_lo
                if hi > w_hi:
                    hi = w_hi
        h = 0
        for k in range(s, s + n):
            x_lo, x_hi = b_lo[k], b_hi[k]
            lo, hi = r_lo[k] - h, r_hi[k] - h
            if lo < x_lo:
                lo = x_lo
            if hi > x_hi:
                hi = x_hi
            if lo > hi:
                x = x_hi if lo > x_hi else x_lo
            else:
                x = lo if lo > 0 else hi if hi < 0 else 0
            entries.append(x)
            h += x
            h = h_lo[k] if h < h_lo[k] else h_hi[k] if h > h_hi[k] else h
            rows.append(h)
            cols.append(cols[k] + x)
        total += h
    a0_lo, a0_hi = lower[3 * mn], upper[3 * mn]
    total = a0_lo if total < a0_lo else a0_hi if total > a0_hi else total
    return [*rows, *cols[n:], *entries, total]


def min_cost_circulation(
    net: Network,
    cost: "Mapping[int, int] | None" = None,
    info: "dict | None" = None,
) -> "Circulation | CutWitness | Ray":
    """A minimum-cost integer circulation, or a proof that none exists.

    Returns a ``CutWitness`` when the network is infeasible, and a ``Ray``
    when the objective is unbounded below over the true bounds of the
    instance the network was built from.  Otherwise the circulation is
    optimal for the true bounds, not only for the clamped ones: a bounded
    problem has an optimum whose flows stay below K.  Without a nonzero
    cost every circulation is optimal, and the first one found is
    returned.

    The solve first runs ``_reach``, one line pass over the columns and
    at most one over the rows.  An empty reach shows a row or column that
    contradicts its windows on its own: the pass that found it names the
    failing chain, ``_line_cut`` turns it into the witness, and the solve
    returns it before any start, residual graph or flow, with the
    network's size and no pushes or relabels in ``info``.  A
    contradiction that needs both layers or the total window empties no
    reach, and the solve goes on as below.

    Otherwise the flow starts from ``_greedy_start`` over the column reach,
    with every negatively priced arc moved to its upper bound and every
    positively priced arc to its lower bound: it lies inside every arc
    bound, may break conservation, and leaves every reduced cost
    nonnegative under zero potentials.  Without a cost, a start that
    already conserves is the answer: the solve returns it before any
    residual graph is built, with the network's size and no pushes or
    relabels in ``info``.

    Otherwise the solve builds one residual graph, in which arc a is edge
    2a and carries flow lower[a] plus the capacity of edge 2a + 1, and
    runs one primal-dual loop on it (Ahuja, Magnanti & Orlin 1993,
    section 9.8).  The graph has the network's nodes and no other: a node
    that receives more than it sends holds the difference as excess, a
    node that sends more lacks flow and is a sink, and the excess list is
    the pseudoflow that all rounds share.  Each round runs
    ``_FlowGraph.push_relabel`` over the edges of zero reduced cost;
    ``info`` receives the network's size and the pushes and relabels of
    all rounds of this one solve.  Once no node holds excess, none lacks
    flow either, the flow is a circulation, and the potentials prove it
    optimal.

    Infeasibility shows as excess that reaches no node that lacks flow.
    Let R be the set of nodes that residual paths reach from some of the
    nodes holding excess, and suppose R holds no node that lacks flow.  No
    residual edge leaves R, so every arc entering R is at its lower bound
    and every arc leaving R at its upper bound.  Summing conservation over
    R, l(delta_in R) - u(delta_out R) equals the excess held in R, which
    is positive.  The nodes R misses form a set W with rho_u(W) -
    delta_l(W) < 0.  This holds for any start inside the bounds and any
    potentials.  The witness names R and says that W is its complement;
    ``make_cut_witness`` recomputes the deficit from the network's bounds,
    over the arcs that meet R (the same arcs cross the cut either way),
    and not from anything the solve computed.

    Without a cost every edge has zero reduced cost, so one round runs
    over the whole residual graph.  It either delivers every excess or
    stops at the first stranded nodes, whose height shows that no
    residual path joins them to a node that lacks flow; R is what they
    reach.  The solve leaves the loop after that round.  With a cost, a
    round runs over a subset of the edges, and excess it cannot move
    proves nothing.  One Dijkstra, ``_reduced_distances``, then starts
    from every node that still holds excess and stops when it settles the
    first node that lacks flow, at a distance called the horizon.  Each
    node settled below the horizon moves its potential by its distance
    less the horizon, and every other node keeps its own.  That is the
    raise by the distances capped at the horizon, less the horizon at
    every node, and a uniform shift changes no reduced cost c' = c +
    pi[tail] - pi[head]: every residual c' stays nonnegative, the shortest
    paths to the nearest sink become tight, and only the edges that meet
    a moved node change their c'.  So the next round refilters the
    admissible lists of the moved nodes and their neighbours alone.  The
    first round, under zero potentials, filters only the lists at the
    ends of priced arcs; every other node's admissible list is its
    residual list.  If the Dijkstra reaches no node that lacks flow, it
    runs until its heap is empty, and R is what it reached.  A horizon of
    0 is an InternalError: push-relabel strands excess only where no path
    of zero reduced cost leads to a sink, and a raise by 0 would repeat
    the round forever.  All arithmetic is exact.

    A priced solve then checks that no residual edge has negative reduced
    cost c', and one scan of the arcs decides boundedness, both as passes
    over whole lists of arc costs, bounds and potentials: the optimum is
    unbounded exactly when c' < 0 on an arc whose upper bound is +K or
    c' > 0 on one whose lower bound is -K.  If the true optimum is
    bounded, some clamped optimum keeps every flow strictly inside +-K,
    and complementary slackness between it and pi rules both out.  If it
    is unbounded, some cycle of open sides has negative cost, which
    equals the sum of its steps' c'.  The scan reads prices, not flows: a
    degenerate bounded optimum may carry +-K on an open side.  When it
    fires, ``_ray`` solves the recession instance, which has no infinite
    bound, so that solve's scan never fires.

    No solve checks the flows it returns: each caller reads its answer
    through ``checked_matrix``, ``feasibility``'s ``_answer`` and ``_ray``
    against the instance the network was built from, and ``decompose``
    every part against its box instance.
    """
    nodes, arc_count = net.node_count, len(net.lower)
    if info is not None:
        info.update(nodes=nodes, arcs=arc_count, pushes=0, relabels=0)
    reach, witness = _reach(net)
    if witness is not None:
        return witness
    lower, upper = net.lower, net.upper
    costs = [0] * arc_count
    flow = _greedy_start(net, reach)
    for arc_id, c in (cost or {}).items():
        if c:
            costs[arc_id] = c
            flow[arc_id] = upper[arc_id] if c < 0 else lower[arc_id]
    priced = any(costs)
    excess = _balances(net, flow)
    if not (priced or any(excess)):
        return Circulation(tuple(flow))
    graph = _FlowGraph(nodes, *_ends(net.m, net.n), [*map(sub, upper, flow)], [*map(sub, flow, lower)], costs)
    adj, to, cap, edge_cost = graph.adj, graph.to, graph.cap, graph.cost
    pi = [0] * nodes
    admissible = adj
    stale: "set[int]" = set()
    if priced:
        # under zero potentials an edge is admissible exactly when it costs nothing:
        # only the ends of priced arcs filter their lists, and every other node shares
        # its residual list, which push-relabel never changes
        admissible = adj[:]
        stale.update(compress(to[0::2], costs), compress(to[1::2], costs))
    pushes = relabels = 0
    reached = None
    while True:
        for v in stale:
            p = pi[v]
            admissible[v] = [idx for idx in adj[v] if edge_cost[idx] + p == pi[to[idx]]]
        more_pushes, more_relabels, stranded = graph.push_relabel(admissible, excess)
        pushes += more_pushes
        relabels += more_relabels
        if not priced:
            # the one round ran over the whole residual graph
            if stranded:
                reached = [h < nodes for h in graph.distances(stranded, adj, 0)]
            break
        unbalanced = [*compress(range(nodes), excess)]
        if not unbalanced:
            break
        dist, horizon, ball = _reduced_distances(
            graph, pi, [v for v in unbalanced if excess[v] > 0], excess
        )
        if horizon is None:
            reached = [d is not None for d in dist]
            break
        if horizon == 0:
            raise InternalError("a priced round left excess on a path of zero reduced cost")
        # the raise capped at the horizon, less the horizon at every node: only the
        # edges that meet the ball change their reduced costs
        for v in ball:
            pi[v] += dist[v] - horizon
        neighbours = map(to.__getitem__, chain.from_iterable(map(adj.__getitem__, ball)))
        stale = set(ball).union(neighbours)
    if info is not None:
        info.update(pushes=pushes, relabels=relabels)
    if reached is not None:
        return make_cut_witness(net, frozenset(compress(range(nodes), reached)), True)
    if priced:
        # c' = c + pi[tail] - pi[head] per arc; edge 2a runs from to[2a + 1] to to[2a],
        # and edge 2a + 1 back at reduced cost -c'
        tail_pi, head_pi = map(pi.__getitem__, to[1::2]), map(pi.__getitem__, to[0::2])
        reduced = [*map(sub, map(add, costs, tail_pi), head_pi)]
        if (min(compress(reduced, cap[0::2]), default=0) < 0
                or max(compress(reduced, cap[1::2]), default=0) > 0):
            raise InternalError("negative reduced cost left after optimization")
        big_k = net.big_k
        if (min(compress(reduced, map(big_k.__eq__, upper)), default=0) < 0
                or max(compress(reduced, map((-big_k).__eq__, lower)), default=0) > 0):
            return _ray(net, cost)
    return Circulation(tuple(map(add, lower, cap[1::2])))


def _reduced_distances(
    graph: _FlowGraph, pi: list[int], sources: list[int], excess: list[int]
) -> "tuple[list[int | None], int | None, list[int]]":
    """Dijkstra on reduced costs over residual edges, stopped at the nearest sink.

    Returns (dist, horizon, ball).  The search stops when it pops the
    first node that lacks flow, negative in ``excess``; that node's
    distance is the horizon, and the ball lists the nodes settled below
    it, each with its exact distance in ``dist``.  Elsewhere ``dist`` holds
    None or a value no less than the horizon.  When no such node can be
    reached, the horizon is None, the heap runs empty, and ``dist`` is
    exact, None at every unreached node.
    """
    dist: "list[int | None]" = [None] * len(graph.adj)
    heap = [(0, v) for v in sources]
    for v in sources:
        dist[v] = 0
    adj, to, cap, cost = graph.adj, graph.to, graph.cap, graph.cost
    ball = []
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        if excess[v] < 0:
            # nodes pop in order of distance, so those at the horizon end the list
            while ball and dist[ball[-1]] == d:
                ball.pop()
            return dist, d, ball
        ball.append(v)
        base = d + pi[v]
        for idx in adj[v]:
            if cap[idx] > 0:
                w = to[idx]
                nd = base + cost[idx] - pi[w]
                if dist[w] is None or nd < dist[w]:
                    dist[w] = nd
                    heapq.heappush(heap, (nd, w))
    return dist, None, ball


def _ray(net: Network, cost: Mapping[int, int]) -> Ray:
    """The optimum of the recession instance, read by ``checked_matrix``.

    Each bound of ``net.instance`` becomes its tag: -inf -1, +inf 1 and
    finite 0.  A direction that keeps every bound at every scale moves no
    value past a finite side, so scaled down it fits these windows: if one
    has negative cost, so has the integer optimum D.
    """
    inst = net.instance
    zeros = (0,) * (inst.m * inst.n)
    tables = {
        key: ExtMatrix(inst.m, inst.n, getattr(inst, key).tags, zeros)
        for key in ("phi1", "gamma1", "phi2", "gamma2", "f", "g")
    }
    recession = replace(
        inst, **tables, alpha=ExtInt(0, inst.alpha.tag), beta=ExtInt(0, inst.beta.tag)
    )
    rec_net = build_network(recession)
    circ = min_cost_circulation(rec_net, cost)
    direction = checked_matrix(recession, circ)
    ray_cost = sum(c * circ.flows[a] for a, c in cost.items())
    if ray_cost >= 0:
        raise InternalError(f"recession flows spell no direction of negative cost: {ray_cost}")
    return Ray(direction, ray_cost)


def matrix_from_circulation(net: "Network | PbmInstance", circ: Circulation) -> IntMatrix:
    """Read the matrix entries off the N arcs of an m x n network or instance."""
    m, n = net.m, net.n
    flows = circ.flows[2 * m * n : 3 * m * n]
    return IntMatrix(m, n, tuple(flows[k : k + n] for k in range(0, m * n, n)))


def checked_matrix(inst: PbmInstance, circ: Circulation) -> IntMatrix:
    """The matrix read off the N arcs, checked: the one check of a solver's flows.

    The matrix's circulation is rebuilt against the instance's true bounds.
    A bound it breaks is an InternalError that names it, and so is any
    difference from ``circ``: the flows then do not conserve.
    """
    mat = matrix_from_circulation(inst, circ)
    try:
        rebuilt = circulation_from_matrix(inst, mat)
    except BoundViolation as exc:
        raise InternalError(f"solver flows break a bound: {exc}") from exc
    if rebuilt != circ:
        raise InternalError("conservation fails: the flows are not their matrix's circulation")
    return mat


def _check_table(
    what: str, values: Sequence[int], low: ExtMatrix, high: ExtMatrix, by_column: bool = False
) -> None:
    """Raise BoundViolation at the first value outside its bounds.

    ``values`` is row-major like the bound tables.  Cells are scanned row
    by row, or column by column when ``by_column``; the message names the
    cell as (row, column).
    """
    lows, highs = low.values, high.values
    if not (any(low.tags) or any(high.tags)):
        # no infinite cell: every value is compared with both of its bounds as they stand
        in_bounds = all(map(le, lows, values)) and all(map(le, values, highs))
    else:
        low_finite, high_finite = [*map(not_, low.tags)], [*map(not_, high.tags)]
        in_bounds = all(map(le, compress(lows, low_finite), compress(values, low_finite))) and all(
            map(le, compress(values, high_finite), compress(highs, high_finite)))
    if in_bounds:
        return
    n, size = low.n, len(values)
    order = (k for j in range(n) for k in range(j, size, n)) if by_column else range(size)
    for k in order:
        v = values[k]
        if (not low.tags[k] and v < lows[k]) or (not high.tags[k] and v > highs[k]):
            i, j = k // n + 1, k % n + 1
            lo, hi = low.at(i, j), high.at(i, j)
            raise BoundViolation(f"{what} ({i},{j}) = {v} outside [{lo}, {hi}]")


def circulation_from_matrix(inst: PbmInstance, mat: IntMatrix) -> Circulation:
    """The circulation spelled out by a matrix; checks every instance bound.

    Raises BoundViolation naming the first broken constraint, scanning
    entries, then horizontal prefixes, then vertical prefixes column by
    column, then the total sum.
    """
    if (mat.m, mat.n) != (inst.m, inst.n):
        raise DimensionMismatch(
            f"matrix is {mat.m}x{mat.n}, instance is {inst.m}x{inst.n}"
        )
    rows = mat.rows
    entries = [*chain(*rows)]
    _check_table("entry", entries, inst.f, inst.g)
    h_sums = [*chain(*map(accumulate, rows))]
    _check_table("horizontal prefix", h_sums, inst.phi1, inst.gamma1)
    v_sums = [*chain(*accumulate(rows, lambda above, row: [*map(add, above, row)]))]
    _check_table("vertical prefix", v_sums, inst.phi2, inst.gamma2, by_column=True)
    total = sum(h_sums[inst.n - 1 :: inst.n])
    if not inst.alpha <= total <= inst.beta:
        raise BoundViolation(
            f"total sum {total} outside [{inst.alpha}, {inst.beta}]"
        )
    return Circulation((*h_sums, *v_sums, *entries, total))


# hub sides of the cut (v1_hub in W, v2_hub in W) -> (case, the inequality it breaks)
_CUT_CASES = {
    (True, True): (1, "gen1a"),
    (False, False): (2, "gen1b"),
    (False, True): (3, "gen1alfa"),
    (True, False): (4, "gen1beta"),
}


@dataclass(frozen=True, slots=True)
class Certificate:
    """A subset pair on which the inequality ``violated`` strictly fails: lhs > rhs.

    ``case`` (1-4) says on which sides of the cut the two hubs lie.  The CLI
    prints the fields in this order as the keys of ``certificate`` (docs/schema.md).
    """

    x1: SubsetMask
    x2: SubsetMask
    case: int
    violated: str
    lhs: ExtInt
    rhs: ExtInt


def cut_to_certificate(net: Network, witness: CutWitness) -> Certificate:
    """Translate a violated node set into the ``Certificate`` of a violated inequality.

    The hubs' sides of the cut select one of four cases, each naming the
    inequality it breaks.  X1 (X2) holds the cells whose layer-1 (layer-2)
    node lies on the other side of the cut from v1_hub (v2_hub).  The
    named inequality is evaluated from the instance's true bounds, on X1
    and X2 as sets of row-major cell indices, and must be strictly
    violated; anything else is an internal bug.
    """
    named, complement = witness.nodes, witness.complement
    m, n, mn = net.m, net.n, net.m * net.n
    hub1_named, hub2_named = net.v1_hub in named, net.v2_hub in named
    case, violated = _CUT_CASES[hub1_named != complement, hub2_named != complement]

    def layer_cells(first: int, hub_named: bool) -> set[int]:
        # a layer numbers its nodes row-major from the node of cell (1, 1); a
        # node lies across the cut from its hub when exactly one of them is named
        cells = {v - first for v in named if first <= v < first + mn}
        return set(range(mn)).difference(cells) if hub_named else cells

    x1 = layer_cells(net.v1_node(1, 1), hub1_named)
    x2 = layer_cells(net.v2_node(1, 1), hub2_named)
    record = strongpair.pair_record(net.instance, x1, x2, violated)
    if record.holds:
        raise InternalError(
            f"cut does not violate {violated}: lhs {record.lhs} <= rhs {record.rhs}"
        )

    def mask(cells: set[int]) -> SubsetMask:
        picked = [*map(n.__add__, cells)]
        rows = map(floordiv, picked, repeat(n))
        cols = map(add, map(mod, picked, repeat(n)), repeat(1))
        return SubsetMask(m, n, frozenset(zip(rows, cols)))

    return Certificate(mask(x1), mask(x2), case, violated, record.lhs, record.rhs)


def _node_name(net: Network, v: int) -> str:
    mn = net.m * net.n
    if v == net.v1_hub:
        return "v1_hub"
    if v == net.v2_hub:
        return "v2_hub"
    layer = 1 if v < mn else 2
    k = v if v < mn else v - mn
    return f"v{layer}_{k // net.n + 1}_{k % net.n + 1}"


def network_to_dot(net: Network, circ: "Circulation | None" = None) -> str:
    """GraphViz rendering of the network, optionally with flow values."""

    def bound(x: int) -> str:
        if x == net.big_k:
            return "+K"
        if x == -net.big_k:
            return "-K"
        return str(x)

    lines = ["digraph pbm_network {", "  rankdir=LR;"]
    for v in range(net.node_count):
        lines.append(f'  {_node_name(net, v)} [shape=ellipse];')
    for arc_id, (u, w, lo, hi) in enumerate(zip(net.tail, net.head, net.lower, net.upper)):
        tag = net.arc_tag(arc_id)
        name = tag[0] if len(tag) == 1 else f"{tag[0]}({tag[1]},{tag[2]})"
        label = f"{name} [{bound(lo)},{bound(hi)}]"
        if circ is not None:
            label += f" z={circ.flows[arc_id]}"
        lines.append(f'  {_node_name(net, u)} -> {_node_name(net, w)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
