"""Network construction, Hoffman feasibility, min-cost solving, certificates."""

import dataclasses
import importlib
import random

import pytest

from pbm.core import NEG_INF, POS_INF, ExtMatrix, IntMatrix, PbmInstance, fin
from pbm import circulation, oracle, strongpair
from pbm.asmkit import asm_instance, k_regular_instance
from pbm.circulation import (
    Circulation,
    _FlowGraph,
    Ray,
    _balances,
    _greedy_start,
    _reach,
    build_network,
    checked_matrix,
    circulation_from_matrix,
    cut_to_certificate,
    make_cut_witness,
    matrix_from_circulation,
    min_cost_circulation,
    network_to_dot,
    CutWitness,
)
from pbm.decompose import decompose
from pbm.errors import BoundViolation, InternalError
from pbm.feasibility import extremal_total_sum, optimize_cost, solve

from helpers import feasible_random, open_instance, open_last_entry, random_instance, scaled_instance


def _reference_bounds(inst: PbmInstance) -> list:
    """(arc tag, true lower bound, true upper bound) per arc id, read with ``.at()``."""
    cells = [(i, j) for i in range(1, inst.m + 1) for j in range(1, inst.n + 1)]
    return [
        *((("A1", i, j), inst.phi1.at(i, j), inst.gamma1.at(i, j)) for i, j in cells),
        *((("A2", i, j), inst.phi2.at(i, j), inst.gamma2.at(i, j)) for i, j in cells),
        *((("N", i, j), inst.f.at(i, j), inst.g.at(i, j)) for i, j in cells),
        (("a0",), inst.alpha, inst.beta),
    ]


def _huge_bounds_instance() -> PbmInstance:
    """A 2x3 instance whose finite bounds reach 2^400, with infinities between them."""
    rng = random.Random(9)
    big = 2**400
    tables = [
        [[rng.choice([lo_inf, rng.randint(-big, big)]) for _ in range(3)] for _ in range(2)]
        for lo_inf in (NEG_INF, POS_INF, NEG_INF, POS_INF, NEG_INF, POS_INF)
    ]
    for low, high in zip(tables[0::2], tables[1::2]):
        for lo_row, hi_row in zip(low, high):
            for j, (lo, hi) in enumerate(zip(lo_row, hi_row)):
                if type(lo) is int and type(hi) is int and lo > hi:
                    lo_row[j], hi_row[j] = hi, lo
    return PbmInstance.create(2, 3, *tables, alpha=-big, beta=big + 1)


def contradictory_1x1() -> PbmInstance:
    # horizontal window pins the entry to 1, vertical window pins it to 0
    return PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]])


class TestNetworkShape:
    def test_1x1_asm(self):
        net = build_network(asm_instance(1))
        assert net.node_count == 4
        assert len(net.lower) == 4
        # the A1 and A2 arcs of a cell have the ids of its nodes v1 and v2
        a1 = net.v1_node(1, 1)
        assert (net.lower[a1], net.upper[a1]) == (1, 1)
        n_arc = net.n_arc_id(1, 1)
        assert (net.lower[n_arc], net.upper[n_arc]) == (-1, 1)
        a0 = net.a0_id
        assert (net.lower[a0], net.upper[a0]) == (-net.big_k, net.big_k)

    def test_2x2_counts(self):
        net = build_network(asm_instance(2))
        assert net.node_count == 10
        assert len(net.lower) == 13

    def test_arc_endpoints_concatenate_prefixes(self):
        net = build_network(asm_instance(2))
        # horizontal arc at (i, j) carries the j-th prefix sum of row i
        arc = net.v1_node(1, 1)
        assert net.tail[arc] == net.v1_node(1, 2) and net.head[arc] == net.v1_node(1, 1)
        last = net.v1_node(1, 2)
        assert net.tail[last] == net.v1_hub
        # vertical arcs run downward into the hub
        vlast = net.v2_node(2, 1)
        assert net.head[vlast] == net.v2_hub

    def test_big_k_dominates_finite_bounds(self):
        inst = asm_instance(3)
        bounds = [b for _, low, high in _reference_bounds(inst) for b in (low, high)]
        finite_total = sum(abs(b.value) for b in bounds if b.is_finite)
        net = build_network(inst)
        # K must exceed twice the total finite mass for cut deficits to stay
        # negative after the substitution
        assert net.big_k == 1 + 2 * finite_total + inst.m * inst.n
        assert net.big_k > 2 * finite_total

    def test_flat_arcs_join_the_named_nodes(self):
        m, n = 3, 4
        net = build_network(feasible_random(random.Random(34), m, n))
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                a1, a2, e = net.v1_node(i, j), net.v2_node(i, j), net.n_arc_id(i, j)
                a1_tail = net.v1_node(i, j + 1) if j < n else net.v1_hub
                a2_head = net.v2_node(i + 1, j) if i < m else net.v2_hub
                assert (net.tail[a1], net.head[a1]) == (a1_tail, net.v1_node(i, j))
                assert (net.tail[a2], net.head[a2]) == (net.v2_node(i, j), a2_head)
                assert (net.tail[e], net.head[e]) == (net.v1_node(i, j), net.v2_node(i, j))
                assert [net.arc_tag(a) for a in (a1, a2, e)] == [
                    ("A1", i, j), ("A2", i, j), ("N", i, j)
                ]
        assert (net.tail[net.a0_id], net.head[net.a0_id]) == (net.v2_hub, net.v1_hub)
        assert net.arc_tag(net.a0_id) == ("a0",)

    def test_cell_nodes_have_one_entry_arc_and_their_prefix_arcs(self):
        # a row's prefix chain runs hub -> (i, n) -> ... -> (i, 1) in layer 1 and a
        # column's runs (1, j) -> ... -> (m, j) -> hub in layer 2, so only the first
        # cell of each line lacks the prefix arc on the far side from its hub
        m, n = 3, 4
        net = build_network(feasible_random(random.Random(34), m, n))
        mn = m * n
        prefix, entries = range(2 * mn), range(2 * mn, 3 * mn)

        def degree(v, arcs, ends):
            return sum(ends[a] == v for a in arcs)

        for i in range(1, m + 1):
            for j in range(1, n + 1):
                v1, v2 = net.v1_node(i, j), net.v2_node(i, j)
                assert degree(v1, prefix, net.head) == 1
                assert degree(v1, prefix, net.tail) == int(j > 1)
                assert degree(v2, prefix, net.head) == int(i > 1)
                assert degree(v2, prefix, net.tail) == 1
                assert degree(v1, entries, net.tail) + degree(v1, entries, net.head) == 1
                assert degree(v2, entries, net.tail) + degree(v2, entries, net.head) == 1
        assert degree(net.v1_hub, prefix, net.tail) == m
        assert degree(net.v2_hub, prefix, net.head) == n

    def test_lower_above_upper_rejected(self):
        # only an instance that skipped validation can have an empty interval
        inst = asm_instance(1)
        bad = dataclasses.replace(inst, f=ExtMatrix.from_rows([[1]]), g=ExtMatrix.from_rows([[0]]))
        with pytest.raises(InternalError, match=r"on arc \('N', 1, 1\): \[1, 0\]$"):
            build_network(bad)
        bad = dataclasses.replace(inst, alpha=fin(2), beta=fin(1))
        with pytest.raises(InternalError, match=r"on arc \('a0',\): \[2, 1\]$"):
            build_network(bad)

    @pytest.mark.parametrize(
        "inst",
        [
            *(random_instance(random.Random(s), 1 + s % 4, 1 + s // 4) for s in range(16)),
            *(feasible_random(random.Random(s), 1, 3 + 7 * s, inf_rate=0.3) for s in range(4)),
            feasible_random(random.Random(5), 6, 7, inf_rate=0.0),
            _huge_bounds_instance(),
        ],
    )
    def test_bounds_match_a_reference_read_cell_by_cell(self, inst):
        net = build_network(inst)
        bounds = _reference_bounds(inst)
        finite = [b.value for _, low, high in bounds for b in (low, high) if b.is_finite]
        big_k = 1 + 2 * sum(map(abs, finite)) + inst.m * inst.n
        assert net.big_k == big_k

        def clamp(b):
            return b.value if b.is_finite else b.tag * big_k

        assert list(zip(net.lower, net.upper)) == [(clamp(lo), clamp(hi)) for _, lo, hi in bounds]
        assert [net.arc_tag(a) for a in range(len(net.lower))] == [tag for tag, _, _ in bounds]


def _edge_by_edge(nodes, tails, heads, caps, backs, costs):
    """The reference for the ``_FlowGraph`` constructor: one edge pair per arc, in turn."""
    to, cap, cost, adj = [], [], [], [[] for _ in range(nodes)]
    for u, w, c, back, price in zip(tails, heads, caps, backs, costs):
        adj[u].append(len(to))
        adj[w].append(len(to) + 1)
        to += [w, u]
        cap += [c, back]
        cost += [price, -price]
    return to, cap, cost, adj


class TestResidualGraph:
    @pytest.mark.parametrize("priced", [False, True], ids=["unpriced", "priced"])
    def test_bulk_arcs_match_edge_by_edge(self, priced):
        rng = random.Random(31 + priced)
        for _ in range(30):
            nodes = rng.randint(1, 8)
            count = rng.randint(0, 20)
            tails = [rng.randrange(nodes) for _ in range(count)]
            heads = [rng.randrange(nodes) for _ in range(count)]
            caps = [rng.randint(0, 10**30) for _ in range(count)]
            backs = [rng.randint(0, 9) for _ in range(count)]
            costs = [rng.randint(-5, 5) if priced else 0 for _ in range(count)]
            args = (nodes, tails, heads, caps, backs, costs)
            bulk = _FlowGraph(*args)
            assert (bulk.to, bulk.cap, bulk.cost, bulk.adj) == _edge_by_edge(*args)
            assert bulk.cost[1::2] == [-c for c in bulk.cost[0::2]]

    def test_bulk_arcs_on_instance_networks(self):
        rng = random.Random(33)
        for _ in range(10):
            net = build_network(feasible_random(rng, rng.randint(1, 6), rng.randint(1, 6)))
            flow = _greedy_start(net, _reach(net)[0])
            caps = [hi - z for z, hi in zip(flow, net.upper)]
            backs = [z - lo for lo, z in zip(net.lower, flow)]
            costs = [rng.randint(-3, 3) for _ in flow]
            args = (net.node_count, net.tail, net.head, caps, backs, costs)
            bulk = _FlowGraph(*args)
            assert (bulk.to, bulk.cap, bulk.cost, bulk.adj) == _edge_by_edge(*args)

    def test_every_residual_graph_is_the_network(self, graph_builds):
        # the nodes that lack flow are the sinks: no node or edge outside the network
        priced = feasible_random(random.Random(0), 6, 7)
        rng = random.Random(1)
        costs = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(7)] for _ in range(6)])
        opened = open_last_entry(random.Random(0), priced, "max")
        repaired = feasible_random(random.Random(19), 4, 4)
        peeled = feasible_random(random.Random(0), 3, 3)
        matrix = solve(peeled).matrix
        cases = {
            "unpriced repair": (repaired, lambda: solve(repaired).status, "feasible", 1),
            "priced sum": (priced, lambda: extremal_total_sum(priced, "max").status, "optimal", 1),
            "priced cost": (priced, lambda: optimize_cost(priced, costs).status, "optimal", 1),
            # the main solve and the recession solve of its ray
            "ray": (opened, lambda: extremal_total_sum(opened, "max").status, "unbounded", 2),
            "decompose peel": (peeled, lambda: decompose(peeled, matrix, 5).k, 5, 1),
        }
        for name, (inst, call, answer, solves) in cases.items():
            net = build_network(inst)
            graph_builds.clear()
            assert call() == answer, name
            assert graph_builds == [(net.node_count, 2 * len(net.lower))] * solves, name

    def test_every_solved_network_is_built_from_its_own_instance(self, monkeypatch):
        # a decompose peel solves the network of its box instance, and the ray's
        # recession solve that of the recession instance: no bounds are swapped in
        solved = []
        real = circulation.min_cost_circulation

        def spy(net, *args):
            solved.append(net)
            return real(net, *args)

        for module in ("pbm.circulation", "pbm.decompose", "pbm.feasibility"):
            # the package re-exports ``decompose`` over its module's name
            monkeypatch.setattr(importlib.import_module(module), "min_cost_circulation", spy)
        opened = open_last_entry(random.Random(0), feasible_random(random.Random(0), 6, 7), "max")
        peeled = feasible_random(random.Random(0), 3, 3)
        matrix = solve(peeled).matrix
        solved.clear()
        assert extremal_total_sum(opened, "max").status == "unbounded"
        assert decompose(peeled, matrix, 5).k == 5
        # the main solve, the recession solve of its ray, and one peel
        assert len(solved) == 3
        for net in solved:
            assert net == build_network(net.instance)
        assert solved[2].instance != peeled


class TestFeasibility:
    def test_asm2_circulation(self):
        net = build_network(asm_instance(2))
        circ = min_cost_circulation(net)
        assert not isinstance(circ, CutWitness)
        checked_matrix(net.instance, circ)
        mat = matrix_from_circulation(net, circ)
        assert sorted(mat.to_lists()) in ([[0, 1], [1, 0]], [[1, 0], [0, 1]])

    def test_contradictory_instance_yields_cut(self):
        net = build_network(contradictory_1x1())
        witness = min_cost_circulation(net)
        assert isinstance(witness, CutWitness)
        assert witness.deficit < 0
        again = make_cut_witness(net, witness.nodes, witness.complement)
        assert again.deficit == witness.deficit

    def test_infeasible_solve_stops_at_first_stranded_excess(self, monkeypatch):
        # every line of an ASM can be completed, so only the total window refutes beta = 54
        # and the flow finds the cut; the greedy start strands excess here, so the first
        # global relabel shows it
        searches = []
        distances = _FlowGraph.distances

        def spy(self, sources, adj, flip):
            searches.append(flip)
            return distances(self, sources, adj, flip)

        def refuse(*args):
            raise AssertionError("a cost-free solve raised potentials")

        monkeypatch.setattr(_FlowGraph, "distances", spy)
        monkeypatch.setattr(circulation, "_reduced_distances", refuse)
        net = build_network(dataclasses.replace(asm_instance(55), beta=fin(54)))
        info: dict = {}
        witness = min_cost_circulation(net, info=info)
        assert isinstance(witness, CutWitness)
        assert searches.count(1) == 1
        assert info["pushes"] == 0
        cert = cut_to_certificate(net, witness)
        assert cert.lhs > cert.rhs

    def test_make_cut_witness_rejects_nonviolating_set(self):
        net = build_network(asm_instance(1))
        with pytest.raises(InternalError):
            make_cut_witness(net, frozenset({0}))

    def test_witness_deficit_matches_per_arc_reference(self):
        # grids to 8x8; on each, a node set of every size, and the set with
        # either hub and both added, each named as W and as V minus W
        rng = random.Random(17)
        seen = set()
        shapes = [(1, 1), (1, 8), (8, 1), (8, 8)] + [
            (rng.randint(1, 8), rng.randint(1, 8)) for _ in range(8)
        ]
        for m, n in shapes:
            net = build_network(random_instance(rng, m, n))
            count = net.node_count
            arcs = list(zip(net.tail, net.head, net.lower, net.upper))
            for size in range(count + 1):
                base = frozenset(rng.sample(range(count), size))
                for hubs in ((), (net.v1_hub,), (net.v2_hub,), (net.v1_hub, net.v2_hub)):
                    nodes = base | set(hubs)
                    for complement in (False, True):
                        w = frozenset(range(count)) - nodes if complement else nodes
                        deficit = sum(
                            hi if head in w else -lo
                            for tail, head, lo, hi in arcs
                            if (tail in w) != (head in w)
                        )
                        seen.add((complement, deficit < 0))
                        if deficit < 0:
                            witness = CutWitness(nodes, complement, deficit)
                            assert make_cut_witness(net, nodes, complement) == witness
                        else:
                            message = f"nonnegative deficit {deficit}$"
                            with pytest.raises(InternalError, match=message):
                                make_cut_witness(net, nodes, complement)
        assert seen == {(False, False), (False, True), (True, False), (True, True)}


def _refuse(*args, **kwargs):
    raise AssertionError("a line cut ran a flow")


class TestLineCut:
    """An empty reach gives its cut straight off the first contradictory line."""

    @staticmethod
    def instance(cells: dict) -> PbmInstance:
        """A 2x2 instance, unbounded but for ``cells``: name_i_j -> value."""
        tables = {
            name: [[NEG_INF if name in ("phi1", "phi2", "f") else POS_INF] * 2 for _ in range(2)]
            for name in ("phi1", "gamma1", "phi2", "gamma2", "f", "g")
        }
        for key, v in cells.items():
            name, i, j = key.split("_")
            tables[name][int(i) - 1][int(j) - 1] = fin(v)
        return PbmInstance.create(
            2, 2, *(tables[name] for name in ("phi1", "gamma1", "phi2", "gamma2", "f", "g"))
        )

    # v1 nodes are 0-3 and v2 nodes 4-7, row-major; the hubs are 8 and 9.  Each witness
    # names the chain's set S, and W is V minus S exactly when the chain is pushed too
    # high in the column pass or held too low in the row pass.  The row pass never sees
    # an empty entry interval: its crossing windows are the column windows, so the
    # column pass has already failed there, on a one-cell chain that gives the same W.
    @pytest.mark.parametrize(
        "cells, nodes, complement, case, violated",
        [
            # column 1 can sum to at most 1 + 2 < 5, the crossing row window bounding (1,1)
            ({"phi2_2_1": 5, "g_2_1": 2, "gamma1_1_1": 1}, {0, 4, 6}, False, 2, "gen1b"),
            ({"gamma2_2_1": -5, "f_2_1": -2, "phi1_1_1": -1}, {0, 4, 6}, True, 1, "gen1a"),
            # the row windows force entry (1,2) to at least 3 > g
            ({"phi1_1_2": 3, "gamma1_1_1": 0, "g_1_2": 1}, {1}, True, 1, "gen1a"),
            ({"gamma1_1_2": -3, "phi1_1_1": 0, "f_1_2": -1}, {1}, False, 2, "gen1b"),
            # row 1 can sum to at most 1 + 2 < 5, the crossing column window bounding (1,1)
            ({"phi1_1_2": 5, "g_1_2": 2, "gamma2_1_1": 1}, {0, 1, 4}, True, 1, "gen1a"),
            ({"gamma1_1_2": -5, "f_1_2": -2, "phi2_1_1": -1}, {0, 1, 4}, False, 2, "gen1b"),
            # the column windows force entry (2,1) to at least 3 > g
            ({"phi2_2_1": 3, "gamma2_1_1": 0, "g_2_1": 1}, {6}, False, 2, "gen1b"),
            ({"gamma2_2_1": -3, "phi2_1_1": 0, "f_2_1": -1}, {6}, True, 1, "gen1a"),
        ],
        ids=[
            "column-lower-chain",
            "column-upper-chain",
            "column-crossing-above-g",
            "column-f-above-crossing",
            "row-lower-chain",
            "row-upper-chain",
            "row-crossing-above-g",
            "row-f-above-crossing",
        ],
    )
    def test_shapes(self, monkeypatch, cells, nodes, complement, case, violated):
        witnesses = []

        def counted(net, cut, flip):
            witnesses.append((cut, flip))
            return make_cut_witness(net, cut, flip)

        monkeypatch.setattr(circulation, "make_cut_witness", counted)
        monkeypatch.setattr(circulation, "_greedy_start", _refuse)
        monkeypatch.setattr(circulation, "_FlowGraph", _refuse)
        inst = self.instance(cells)
        net = build_network(inst)
        witness = min_cost_circulation(net)
        named = (witness.nodes, witness.complement)
        assert witnesses == [named] and named == (nodes, complement)
        cert = cut_to_certificate(net, witness)
        assert (cert.case, cert.violated) == (case, violated)
        bits = [sum(1 << ((i - 1) * 2 + j - 1) for i, j in x.cells) for x in (cert.x1, cert.x2)]
        values = {name: (lhs, rhs) for name, lhs, rhs in oracle._PairTables(inst).pair_values(*bits)}
        assert values[violated] == (cert.lhs, cert.rhs)
        assert cert.lhs > cert.rhs

    def test_one_line_pass_per_direction(self, monkeypatch, graph_builds):
        # each pass runs over the other layer's plain windows, so a row cut
        # takes two passes and no solve takes more
        reach_along = circulation._reach_along
        calls = []

        def spy(*args):
            calls.append(args)
            return reach_along(*args)

        monkeypatch.setattr(circulation, "_reach_along", spy)
        cases = {
            "column cut": self.instance({"phi2_2_1": 5, "g_2_1": 2, "gamma1_1_1": 1}),
            "row cut": self.instance({"phi1_1_2": 5, "g_1_2": 2, "gamma2_1_1": 1}),
            "flow cut": dataclasses.replace(asm_instance(3), beta=fin(2)),
            "feasible": asm_instance(3),
        }
        got = {}
        for name, inst in cases.items():
            calls.clear()
            builds = len(graph_builds)
            result = min_cost_circulation(build_network(inst))
            got[name] = (type(result).__name__, len(calls), len(graph_builds) - builds)
        assert got == {
            "column cut": ("CutWitness", 1, 0),
            "row cut": ("CutWitness", 2, 0),
            "flow cut": ("CutWitness", 2, 1),
            "feasible": ("Circulation", 2, 0),
        }

    def test_55x55_needs_no_flow(self, monkeypatch):
        monkeypatch.setattr(circulation, "_greedy_start", _refuse)
        monkeypatch.setattr(circulation, "_FlowGraph", _refuse)
        net = build_network(random_instance(random.Random(1), 55, 55))
        info: dict = {}
        witness = min_cost_circulation(net, info=info)
        assert isinstance(witness, CutWitness)
        assert info == {"nodes": 6052, "arcs": 9076, "pushes": 0, "relabels": 0}
        cert = cut_to_certificate(net, witness)
        assert cert.lhs > cert.rhs


def _reference_reach_along(lines, window, crossing, f, g):
    """The line pass as it was before it named its chain: the reaches, or None at the first empty one."""
    win_lo, win_hi, prev_lo, prev_hi = window
    cross_lo, cross_hi, cross_prev_lo, cross_prev_hi = crossing
    reach_lo, reach_hi = [0] * len(win_lo), [0] * len(win_hi)
    for line in lines:
        lo, hi = win_lo[line[0]], win_hi[line[0]]
        for k in line:
            reach_lo[k], reach_hi[k] = lo, hi
            e_lo, e_hi = cross_lo[k] - cross_prev_hi[k], cross_hi[k] - cross_prev_lo[k]
            e_lo, e_hi = max(e_lo, f[k]), min(e_hi, g[k])
            lo, hi = max(lo - e_hi, prev_lo[k]), min(hi - e_lo, prev_hi[k])
            if lo > hi or e_lo > e_hi:
                return None
    return reach_lo, reach_hi


def _reference_contradiction(lines, window, crossing, f, g):
    """The separate rescan that named the failing chain: (chain, crossed, high), or None."""
    win_lo, win_hi, prev_lo, prev_hi = window
    cross_lo, cross_hi, cross_prev_lo, cross_prev_hi = crossing
    for line in lines:
        lo, hi = win_lo[line[0]], win_hi[line[0]]
        lo_start = hi_start = 0
        for pos, k in enumerate(line):
            c_lo, c_hi = cross_lo[k] - cross_prev_hi[k], cross_hi[k] - cross_prev_lo[k]
            if c_lo > g[k] or f[k] > c_hi:
                return [], [k], c_lo > g[k]
            lo -= c_hi if c_hi < g[k] else g[k]
            hi -= c_lo if c_lo > f[k] else f[k]
            if lo > prev_hi[k]:
                cells = line[lo_start : pos + 1]
                return [*cells], [c for c in cells if cross_hi[c] - cross_prev_lo[c] < g[c]], False
            if hi < prev_lo[k]:
                cells = line[hi_start : pos + 1]
                return [*cells], [c for c in cells if cross_lo[c] - cross_prev_hi[c] > f[c]], True
            if prev_lo[k] > lo:
                lo, lo_start = prev_lo[k], pos + 1
            if prev_hi[k] < hi:
                hi, hi_start = prev_hi[k], pos + 1
    return None


_TABLES = ("phi1", "gamma1", "phi2", "gamma2", "f", "g")


def _shifted_windows(inst: PbmInstance, rng: random.Random, count: int) -> PbmInstance:
    """``inst`` with ``count`` random prefix windows moved by up to 3, both finite sides alike."""
    tables = {name: [*getattr(inst, name).values] for name in _TABLES[:4]}
    for _ in range(count):
        low, high = rng.choice((("phi1", "gamma1"), ("phi2", "gamma2")))
        k, d = rng.randrange(inst.m * inst.n), rng.choice((-3, -2, -1, 1, 2, 3))
        for name in (low, high):
            if not getattr(inst, name).tags[k]:
                tables[name][k] += d
    return dataclasses.replace(
        inst,
        **{name: dataclasses.replace(getattr(inst, name), values=tuple(v)) for name, v in tables.items()},
    )


class TestMergedLinePass:
    """The one line pass against the two it replaced, on both passes ``_reach`` runs."""

    @staticmethod
    def instances():
        rng = random.Random(22)
        for _ in range(150):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            yield random_instance(rng, m, n, rng.choice((0.1, 0.25, 0.6)))
            yield feasible_random(rng, m, n)
            yield _shifted_windows(feasible_random(rng, m, n), rng, rng.randint(1, 3))
        for size in (20, 35, 55):
            yield random_instance(rng, size, size)
            yield feasible_random(rng, size, size)
            yield _shifted_windows(feasible_random(rng, size, size), rng, 2)
        for length in (50, 400, 3000):
            for shape in ((1, length), (length, 1)):
                yield random_instance(rng, *shape, inf_rate=0.6)
                yield feasible_random(rng, *shape)
                for count in (1, 3):
                    yield _shifted_windows(feasible_random(rng, *shape), rng, count)

    def test_same_chain_or_same_reaches(self):
        seen = {}
        ends = set()
        cases = [*self.instances()]
        cases += [scaled_instance(inst, 10**40) for inst in cases[::3]]
        for inst in cases:
            net = build_network(inst)
            columns, rows, col_window, row_window, f, g = circulation._line_tables(net)
            want = {}
            for name, lines, window, crossing in (
                ("column", columns, col_window, row_window),
                ("row", rows, row_window, col_window),
            ):
                chain = _reference_contradiction(lines, window, crossing, f, g)
                reach = _reference_reach_along(lines, window, crossing, f, g)
                assert (chain is None) == (reach is not None)
                assert circulation._reach_along(lines, window, crossing, f, g) == (reach, chain)
                want[name] = (reach, chain)
                seen.setdefault(name, set()).add((chain is None, chain is not None and chain[0] == []))
            # ``_reach`` itself: the column chain, else the row chain, else the column reach
            reach, witness = _reach(net)
            col_reach, col_chain = want["column"]
            row_chain = want["row"][1]
            if col_chain is not None:
                assert (reach, witness) == (None, circulation._line_cut(net, col_chain, True))
                ends.add("column cut")
            elif row_chain is not None:
                assert (reach, witness) == (None, circulation._line_cut(net, row_chain, False))
                ends.add("row cut")
            else:
                assert (reach, witness) == (col_reach, None)
                # the row pass over the column reaches, which ``_reach`` no longer
                # runs, tells the contradictions that need both layers
                c_lo, c_hi = col_reach
                reached = (c_lo, c_hi, circulation._above(c_lo, net.n), circulation._above(c_hi, net.n))
                if _reference_reach_along(rows, row_window, reached, f, g) is not None:
                    ends.add("reach")
                    continue
                cut = min_cost_circulation(net)
                assert isinstance(cut, CutWitness)
                cert = cut_to_certificate(net, cut)
                assert cert.lhs > cert.rhs
                ends.add("no line cut")
        # each pass both finds reaches and names chains, an empty entry interval among them
        assert seen["column"] == {(True, False), (False, False), (False, True)}
        assert {(True, False), (False, False)} <= seen["row"]
        assert ends == {"column cut", "reach", "row cut", "no line cut"}


class TestCertificate:
    def test_contradictory_1x1_case1(self):
        net = build_network(contradictory_1x1())
        witness = min_cost_circulation(net)
        cert = cut_to_certificate(net, witness)
        assert cert.case == 1 and cert.violated == "gen1a"
        assert cert.lhs > cert.rhs
        assert cert.x1.sorted_cells() == [(1, 1)]
        assert cert.x2.sorted_cells() == [(1, 1)]

    def test_cut_that_violates_nothing_is_caught(self):
        # no node named and neither hub across the cut: gen1b on two empty sets reads 0 <= 0
        net = build_network(asm_instance(2))
        with pytest.raises(InternalError, match="^cut does not violate gen1b: lhs 0 <= rhs 0$"):
            cut_to_certificate(net, CutWitness(frozenset(), False, -1))

    def test_no_certificate_for_reachable_cut(self):
        net = build_network(contradictory_1x1())
        with pytest.raises(InternalError):
            # the full node set never violates Hoffman's inequality
            make_cut_witness(net, frozenset(range(net.node_count)))

    def test_random_cuts_translate(self):
        rng = random.Random(23)
        seen_cases = set()
        for _ in range(120):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
            net = build_network(inst)
            got = min_cost_circulation(net)
            if not isinstance(got, CutWitness):
                continue
            cert = cut_to_certificate(net, got)
            seen_cases.add(cert.case)
            assert cert.violated in ("gen1a", "gen1b", "gen1alfa", "gen1beta")
            assert cert.lhs > cert.rhs
        assert seen_cases  # at least one infeasible instance appeared

    def test_cell_set_record_matches_mask_path(self):
        # the cuts the solver finds, by line or by flow, and random node sets
        # of negative deficit; the record cut_to_certificate reads off the
        # cut's cell sets must equal the one evaluated again from its masks
        rng = random.Random(29)
        nets = [build_network(random_instance(rng, 55, 55)) for _ in range(3)]
        for _ in range(400):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 6), rng.random() / 2)
            nets.append(build_network(inst))
        # a flow cut that names v2_hub alone, so X2 is every cell
        nets.append(build_network(dataclasses.replace(asm_instance(55), beta=fin(54))))
        cases, sizes, kinds = set(), set(), set()
        for net in nets:
            cuts = [min_cost_circulation(net)]
            share = rng.random()
            nodes = frozenset(v for v in range(net.node_count) if rng.random() < share)
            try:
                cuts.append(make_cut_witness(net, nodes))
            except InternalError:
                pass
            for cut in cuts:
                if not isinstance(cut, CutWitness):
                    continue
                cert = cut_to_certificate(net, cut)
                record = strongpair.InequalityRecord(cert.violated, cert.lhs, cert.rhs)
                inst, x1, x2 = net.instance, cert.x1, cert.x2
                assert record == strongpair.condition_values(inst, x1, x2).by_name(cert.violated)
                assert cert.lhs > cert.rhs
                cases.add(cert.case)
                sizes.add(min(len(x1), len(x2)) > 1)
                hubs = {net.v1_hub, net.v2_hub} & cut.nodes
                kinds.add((net.m * net.n >= 3025, _reach(net)[1] is not None, bool(hubs)))
        assert cases == {1, 2, 3, 4} and sizes == {False, True}
        # line cuts on 55 x 55 grids, and a flow cut on one whose named set holds a hub
        assert {(True, True, False), (True, False, True)} <= kinds

    def test_either_side_names_the_same_cut(self):
        # every witness the solver returns, by line or by flow, priced or not:
        # naming the other side with the opposite flag is the same cut
        rng = random.Random(31)
        nets = [build_network(dataclasses.replace(asm_instance(55), beta=fin(54)))]
        for _ in range(60):
            inst = random_instance(rng, rng.randint(1, 6), rng.randint(1, 6))
            nets.append(build_network(inst))
            # a total capped below its least value, as random_stress.py refutes it
            inst = feasible_random(rng, rng.randint(1, 6), rng.randint(1, 6))
            least = extremal_total_sum(inst, "min").value
            if least is not None:
                nets.append(build_network(dataclasses.replace(inst, beta=fin(least - 1))))
        seen = set()
        for net in nets:
            by_line = _reach(net)[1] is not None
            for cost in ({}, {a: rng.randint(-3, 3) for a in range(len(net.lower))}):
                witness = min_cost_circulation(net, cost)
                if not isinstance(witness, CutWitness):
                    continue
                seen.add((by_line, witness.complement, bool(cost)))
                other = frozenset(range(net.node_count)) - witness.nodes
                flipped = make_cut_witness(net, other, not witness.complement)
                assert flipped.deficit == witness.deficit
                assert cut_to_certificate(net, flipped) == cut_to_certificate(net, witness)
        # line cuts name either side; a flow cut names what the excess reaches
        assert {(True, False, False), (True, True, False), (False, True, False)} <= seen
        assert (False, True, True) in seen


def _full_distances(graph: _FlowGraph, pi: list[int], sources: list[int]) -> list:
    """Each node's least reduced-cost distance from the sources, None if unreached.

    A plain Dijkstra that settles the nearest open node until none is left.
    """
    dist: list = [None] * len(graph.adj)
    for v in sources:
        dist[v] = 0
    settled: set = set()
    while True:
        open_nodes = [v for v, d in enumerate(dist) if d is not None and v not in settled]
        if not open_nodes:
            return dist
        v = min(open_nodes, key=dist.__getitem__)
        settled.add(v)
        for idx in graph.adj[v]:
            w = graph.to[idx]
            if graph.cap[idx] > 0:
                d = dist[v] + graph.cost[idx] + pi[v] - pi[w]
                if dist[w] is None or d < dist[w]:
                    dist[w] = d


class TestMinCost:
    def test_stopped_dijkstra_matches_a_full_one(self):
        # random residual graphs under random potentials, every residual reduced
        # cost in 0..3 so that many nodes tie; an arc of positive reduced cost has
        # no residual reverse edge
        rng = random.Random(41)
        seen = {"ties at the horizon": 0, "no sink reached": 0, "sink reached": 0}
        for _ in range(400):
            nodes = rng.randint(1, 12)
            count = rng.randint(0, 3 * nodes)
            tails = [rng.randrange(nodes) for _ in range(count)]
            heads = [rng.randrange(nodes) for _ in range(count)]
            pi = [rng.randint(-6, 6) for _ in range(nodes)]
            reduced = [rng.choice((0, 0, 1, 2, 3)) for _ in range(count)]
            costs = [r - pi[u] + pi[w] for r, u, w in zip(reduced, tails, heads)]
            caps = [rng.randint(0, 2) for _ in range(count)]
            backs = [rng.randint(0, 2) if r == 0 else 0 for r in reduced]
            graph = _FlowGraph(nodes, tails, heads, caps, backs, costs)
            excess = [rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(nodes)]
            sources = [v for v in range(nodes) if excess[v] > 0]
            full = _full_distances(graph, pi, sources)
            dist, horizon, ball = circulation._reduced_distances(graph, pi, sources, excess)
            sinks = [full[v] for v in range(nodes) if excess[v] < 0 and full[v] is not None]
            assert horizon == min(sinks, default=None)
            if horizon is None:
                seen["no sink reached"] += 1
                assert [d is not None for d in dist] == [d is not None for d in full]
                continue
            seen["sink reached"] += 1
            seen["ties at the horizon"] += full.count(horizon) > 1
            below = [v for v in range(nodes) if full[v] is not None and full[v] < horizon]
            assert sorted(ball) == below
            assert [dist[v] for v in below] == [full[v] for v in below]
            # the ball's move differs by the horizon at every node from the raise
            # capped at the nearest sink, so every reduced cost comes out the same
            moved = pi[:]
            for v in ball:
                moved[v] += dist[v] - horizon
            capped = [p + (horizon if d is None or d > horizon else d) for p, d in zip(pi, full)]
            assert {c - p for c, p in zip(capped, moved)} == {horizon}
        assert min(seen.values()) >= 20, seen

    def test_a_round_that_strands_reachable_excess_is_an_error(self, monkeypatch):
        # a round that moves nothing leaves a sink at distance 0, and a raise by 0
        # would repeat it forever
        monkeypatch.setattr(_FlowGraph, "push_relabel", lambda self, adj, excess: (0, 0, []))
        net = build_network(asm_instance(3))
        with pytest.raises(InternalError, match="zero reduced cost"):
            min_cost_circulation(net, {net.a0_id: -1})

    def test_a_flow_that_is_not_optimal_is_an_error(self, monkeypatch):
        # the 1x1 network is one cycle; once the rounds have delivered every excess,
        # one unit moves back around it, and the entry's edge of negative reduced
        # cost regains residual capacity
        push_relabel = _FlowGraph.push_relabel

        def spy(self, adj, excess):
            got = push_relabel(self, adj, excess)
            if not any(excess):
                for a in range(len(self.cap) // 2):
                    self.cap[2 * a] += 1
                    self.cap[2 * a + 1] -= 1
            return got

        monkeypatch.setattr(_FlowGraph, "push_relabel", spy)
        two = [[fin(2)]]
        zero = [[fin(0)]]
        inst = PbmInstance.create(1, 1, zero, two, zero, two, zero, two, fin(0), fin(2))
        net = build_network(inst)
        with pytest.raises(InternalError, match="negative reduced cost left after optimization"):
            min_cost_circulation(net, {net.n_arc_id(1, 1): -1})

    def test_asm3_cost_minimum(self):
        inst = asm_instance(3)
        net = build_network(inst)
        # reward the diagonal
        cost = {net.n_arc_id(i, i): -1 for i in range(1, 4)}
        circ = min_cost_circulation(net, cost=cost)
        assert not isinstance(circ, CutWitness)
        checked_matrix(net.instance, circ)
        mat = matrix_from_circulation(net, circ)
        assert mat.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_zero_cost_still_feasible(self):
        net = build_network(asm_instance(2))
        circ = min_cost_circulation(net)
        checked_matrix(net.instance, circ)

    def test_infeasible_returns_cut(self):
        net = build_network(contradictory_1x1())
        got = min_cost_circulation(net)
        assert isinstance(got, CutWitness)

    @pytest.mark.parametrize(
        "inst",
        [asm_instance(4), feasible_random(random.Random(20), 20, 20)],
        ids=["asm4", "20x20"],
    )
    def test_no_cost_skips_the_optimality_machinery(self, monkeypatch, inst):
        def refuse(*args):
            raise AssertionError("a cost-free solve ran the min-cost machinery")

        monkeypatch.setattr("pbm.circulation._reduced_distances", refuse)
        monkeypatch.setattr("pbm.circulation._ray", refuse)
        net = build_network(inst)
        circ = min_cost_circulation(net)
        assert isinstance(circ, Circulation)
        checked_matrix(net.instance, circ)

    def test_excess_stranded_by_a_priced_round_is_no_cut(self, monkeypatch):
        # maximising the sum moves a0 to +K; the first round runs over the edges of
        # zero reduced cost only and strands excess that the whole graph can still move
        raises = []
        reduced_distances = circulation._reduced_distances

        def spy(*args):
            raises.append(args)
            return reduced_distances(*args)

        monkeypatch.setattr(circulation, "_reduced_distances", spy)
        inst = PbmInstance.create(
            1, 1, [[fin(0)]], [[fin(1)]], [[fin(0)]], [[fin(2)]], [[fin(0)]], [[fin(2)]]
        )
        best = extremal_total_sum(inst, "max")
        assert (best.status, best.value) == ("optimal", 1)
        assert raises

    def test_ray_of_no_negative_cost_is_caught(self, monkeypatch):
        # the main solve finds the open sum unbounded; the recession solve inside
        # _ray then answers the zero circulation, a direction that costs nothing
        def zero(net, cost=None, info=None):
            return Circulation((0,) * len(net.lower))

        monkeypatch.setattr(circulation, "min_cost_circulation", zero)
        with pytest.raises(InternalError, match="spell no direction of negative cost: 0$"):
            extremal_total_sum(open_instance(1, 2), "max")

    def test_unbounded_returns_ray(self):
        # the entry and both prefix windows are open above, so rewarding the
        # entry has no limit; the proof is a direction that raises the entry
        inst = PbmInstance.create(
            1, 1, [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]]
        )
        net = build_network(inst)
        got = min_cost_circulation(net, cost={net.n_arc_id(1, 1): -1})
        assert isinstance(got, Ray)
        assert got.direction.to_lists() == [[1]]
        assert got.cost < 0
        recession = PbmInstance.create(
            1, 1, [[fin(0)]], [[fin(1)]], [[fin(0)]], [[fin(1)]], [[fin(0)]], [[fin(1)]], -1, 1
        )
        assert circulation_from_matrix(recession, got.direction).flows == (1, 1, 1, 1)


def one_row_path(n: int) -> PbmInstance:
    """1 x n row whose single unit must travel the whole prefix chain."""
    return PbmInstance.create(
        1,
        n,
        [[fin(0)] * (n - 1) + [fin(1)]],
        [[fin(1)] * n],
        [[NEG_INF] * n],
        [[POS_INF] * n],
        [[fin(0)] * n],
        [[fin(1)] + [fin(0)] * (n - 1)],
    )


def staircase(n: int) -> PbmInstance:
    """1 x n, entries in [0, 1], row prefix (1, j) at most ceil(j/2), all else open."""
    return PbmInstance.create(
        1,
        n,
        [[NEG_INF] * n],
        [[fin((j + 1) // 2) for j in range(1, n + 1)]],
        [[NEG_INF] * n],
        [[POS_INF] * n],
        [[fin(0)] * n],
        [[fin(1)] * n],
    )


def huge_bounds_2x2() -> tuple[PbmInstance, list[list[int]]]:
    """A 2 x 2 instance pinned to one matrix with entries +-1e95, and that matrix."""
    big = 10**95
    hidden = [[big, -big], [-big, big]]
    h = [[fin(big), fin(0)], [fin(-big), fin(0)]]
    v = [[fin(big), fin(-big)], [fin(0), fin(0)]]
    entries = [[fin(x) for x in row] for row in hidden]
    return PbmInstance.create(2, 2, h, h, v, v, entries, entries), hidden


class TestFlowCoreScale:
    @pytest.mark.parametrize("n", [1200, 5000])
    def test_long_augmenting_paths(self, n):
        # a recursive depth-first search overflows the interpreter's stack here
        res = solve(one_row_path(n))
        assert res.is_feasible
        assert res.matrix.to_lists() == [[1] + [0] * (n - 1)]

    def test_huge_bounds_take_few_paths(self):
        inst, hidden = huge_bounds_2x2()
        info: dict = {}
        res = solve(inst, info)
        assert res.matrix.to_lists() == hidden
        # the count must not grow with the size of the bounds
        assert info["pushes"] <= 4
        info = {}
        best = extremal_total_sum(inst, "max", info)
        assert (best.status, best.value) == ("optimal", 0)
        assert info["pushes"] <= 4

    def test_long_lines_take_linear_work(self):
        # each cell's unit travels a path of its own length: one path per phase is quadratic
        work = {}
        for n in (2000, 4000):
            info: dict = {}
            best = extremal_total_sum(staircase(n), "max", info)
            assert (best.status, best.value) == ("optimal", n // 2)
            work[n] = info["pushes"] + info["relabels"]
        assert work[4000] <= 2.1 * work[2000]


def per_arc_balances(net: circulation.Network, flows) -> list[int]:
    """Inflow minus outflow at every node, one arc at a time."""
    balance = [0] * net.node_count
    for u, w, z in zip(net.tail, net.head, flows):
        balance[u] -= z
        balance[w] += z
    return balance


@pytest.mark.parametrize("m", range(1, 6))
def test_layout_balances_match_per_arc_reference(m):
    rng = random.Random(m)
    for n in range(1, 6):
        net = build_network(random_instance(rng, m, n))
        flows = tuple(rng.randint(lo, hi) for lo, hi in zip(net.lower, net.upper))
        want = per_arc_balances(net, flows)
        assert _balances(net, flows) == _balances(net, list(flows)) == want


class TestCheckedMatrix:
    def test_accepts_solver_circulations(self):
        rng = random.Random(12)
        for _ in range(40):
            inst = feasible_random(rng, rng.randint(1, 5), rng.randint(1, 5), inf_rate=0.4)
            net = build_network(inst)
            circ = min_cost_circulation(net)
            assert checked_matrix(inst, circ) == matrix_from_circulation(net, circ)

    def test_entry_past_its_bound_is_outside(self):
        # an ASM's entries lie in [-1, 1]
        inst = asm_instance(3)
        net = build_network(inst)
        flows = min_cost_circulation(net).flows
        for arc, value in ((net.n_arc_id(2, 2), 2), (net.n_arc_id(3, 1), -2)):
            bad = list(flows)
            bad[arc] = value
            with pytest.raises(InternalError, match="outside"):
                checked_matrix(inst, Circulation(tuple(bad)))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_flows_that_are_not_their_matrix_circulation(self, m):
        # on an open instance no bound can break: moving any one arc's flow off
        # the matrix's circulation unbalances both of its ends
        rng = random.Random(m)
        for n in range(1, 6):
            inst = open_instance(m, n)
            net = build_network(inst)
            mat = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
            circ = circulation_from_matrix(inst, mat)
            assert checked_matrix(inst, circ) == mat
            for arc in range(len(circ.flows)):
                flows = list(circ.flows)
                flows[arc] += rng.choice((-1, 1))
                assert any(per_arc_balances(net, flows))
                with pytest.raises(InternalError, match="^conservation fails"):
                    checked_matrix(inst, Circulation(tuple(flows)))


def assert_start_follows_its_rule(inst: PbmInstance) -> int:
    """Check the start against its bounds and its rule; the number of collapsed reaches.

    Every flow must lie inside its arc bound.  Each row is then rebuilt
    from the start's own column flows above it, as ``_greedy_start``
    describes it: an entry window and the column reach, less the column
    prefix above, always meet; a reach collapses at a step of the row
    recurrence that leaves no value inside the predecessor's window,
    [0, 0] before a row's first cell; and each entry and row prefix must
    be the ones the pick rule gives.  Every column prefix stays inside
    its reach, so the vertical layer conserves at every cell node, and a
    row that meets no collapse conserves at every node of both layers.
    An instance that a single line contradicts gets no start, since the
    solve returns that line's cut, and counts 0.
    """
    net = build_network(inst)
    reach, witness = _reach(net)
    if witness is not None:
        return 0
    start = _greedy_start(net, reach)
    assert len(start) == len(net.lower)
    for a, (lo, hi) in enumerate(zip(net.lower, net.upper)):
        assert lo <= start[a] <= hi, net.arc_tag(a)
    m, n, mn = net.m, net.n, net.m * net.n
    lower, upper = net.lower, net.upper
    c_lo, c_hi = reach
    balance = _balances(net, start)
    assert not any(balance[mn : 2 * mn])
    collapsed = 0
    for i in range(m):
        cells = range(i * n, (i + 1) * n)
        row_collapsed = collapsed
        bounds, row_reach = {}, {}
        for k in cells:
            above = start[mn + k - n] if i else 0
            assert c_lo[k] <= above + start[2 * mn + k] <= c_hi[k], net.arc_tag(k)
            f, g = lower[2 * mn + k], upper[2 * mn + k]
            bounds[k] = (max(f, c_lo[k] - above), min(g, c_hi[k] - above))
            assert bounds[k][0] <= bounds[k][1], net.arc_tag(k)
        lo, hi = lower[cells[-1]], upper[cells[-1]]
        for k in reversed(cells):
            row_reach[k] = (lo, hi)
            b_lo, b_hi = bounds[k]
            lo, hi = lo - b_hi, hi - b_lo
            # the prefix before a row's first cell is 0
            w_lo, w_hi = (lower[k - 1], upper[k - 1]) if k > cells[0] else (0, 0)
            if lo > w_hi or hi < w_lo:
                collapsed += 1
                lo = hi = w_hi if lo > w_hi else w_lo
            lo, hi = max(lo, w_lo), min(hi, w_hi)
        h = 0
        for k in cells:
            (r_lo, r_hi), (b_lo, b_hi) = row_reach[k], bounds[k]
            lo, hi = max(r_lo - h, b_lo), min(r_hi - h, b_hi)
            # nearest 0 inside, else the bound nearer the reach
            x = min(max(0, lo), hi) if lo <= hi else b_hi if lo > b_hi else b_lo
            h = min(max(h + x, lower[k]), upper[k])
            assert (start[2 * mn + k], start[k]) == (x, h), net.arc_tag(k)
        if collapsed == row_collapsed:
            assert not any(balance[k] for k in cells)
    return collapsed


@pytest.fixture
def graph_builds(monkeypatch) -> list[tuple[int, int]]:
    """The node and edge counts of every residual graph built while the test runs."""
    built: list[tuple[int, int]] = []
    init = _FlowGraph.__init__

    def spy(self, node_count, *arcs):
        init(self, node_count, *arcs)
        built.append((len(self.adj), len(self.to)))

    monkeypatch.setattr(_FlowGraph, "__init__", spy)
    return built


class TestGreedyStart:
    def test_random_instances_with_infinite_sides(self):
        rng = random.Random(31)
        collapsed = 0
        for _ in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            for inst in (
                random_instance(rng, m, n, inf_rate=0.5),
                feasible_random(rng, m, n, inf_rate=0.5, entry_inf_rate=0.3),
            ):
                collapsed += assert_start_follows_its_rule(inst)
        # the way out of an empty row step occurs
        assert collapsed > 0

    def test_huge_bounds(self):
        assert_start_follows_its_rule(huge_bounds_2x2()[0])

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_long_rows(self, n):
        assert_start_follows_its_rule(one_row_path(n))

    def test_max_flow_repairs_little_on_45x45(self, monkeypatch):
        inst = feasible_random(random.Random(45), 45, 45)
        pushes = []
        for start in (_greedy_start, lambda net, reach: list(net.lower)):
            monkeypatch.setattr(circulation, "_greedy_start", start)
            info: dict = {}
            assert solve(inst, info).is_feasible
            assert info["relabels"] > 0
            pushes.append(info["pushes"])
        greedy, all_lower = pushes
        assert 0 < greedy <= all_lower // 3

    @pytest.mark.parametrize("shape", [(1, 3000), (3000, 1)], ids=["1x3000", "3000x1"])
    def test_feasible_lines_start_as_circulations(self, monkeypatch, graph_builds, shape):
        # a line's reach is exact, so the start conserves and the solve repairs nothing
        inst = feasible_random(random.Random(3), *shape)
        net = build_network(inst)
        assert not any(per_arc_balances(net, _greedy_start(net, _reach(net)[0])))
        searches = []
        distances = _FlowGraph.distances

        def spy(self, sources, adj, flip):
            searches.append(flip)
            return distances(self, sources, adj, flip)

        monkeypatch.setattr(_FlowGraph, "distances", spy)
        info: dict = {}
        assert solve(inst, info).is_feasible
        # a conserving start is the answer: no residual graph is built
        assert (info["pushes"], info["relabels"], searches, graph_builds) == (0, 0, [], [])

    def test_asm_and_k_regular_start_as_circulations(self, graph_builds):
        # each row solved as one exact line under the columns above it
        feasible = 0
        for n in range(1, 41):
            for k in (1, 2, 3):
                inst = asm_instance(n) if k == 1 else k_regular_instance(n, k)
                info: dict = {}
                if not solve(inst, info).is_feasible:
                    assert k > n
                    continue
                feasible += 1
                net = build_network(inst)
                assert not any(_balances(net, _greedy_start(net, _reach(net)[0]))), (n, k)
                assert (info["pushes"], info["relabels"]) == (0, 0), (n, k)
        assert feasible == 40 + 39 + 38
        assert graph_builds == []

    def test_start_leaves_little_excess_on_45x45(self):
        # a start that looks no further than the arcs before each entry leaves 145
        # nodes with excess, one that aims each prefix at its line's reach 50
        net = build_network(feasible_random(random.Random(45), 45, 45))
        assert sum(b > 0 for b in per_arc_balances(net, _greedy_start(net, _reach(net)[0]))) <= 25

    def test_empty_reach_means_no_matrix(self):
        rng = random.Random(41)
        empty = 0
        for k in range(500):
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3), (0.25, 0.6)[k % 2])
            if _reach(build_network(inst))[0] is None:
                empty += 1
                assert oracle.enumerate_pbms(inst) == []
        assert 0 < empty < 500


class TestMatrixRoundTrip:
    def test_round_trip_on_random_feasible(self):
        rng = random.Random(7)
        for _ in range(40):
            inst = feasible_random(rng, rng.randint(1, 3), rng.randint(1, 3))
            net = build_network(inst)
            circ = min_cost_circulation(net)
            assert not isinstance(circ, CutWitness)
            mat = matrix_from_circulation(net, circ)
            back = circulation_from_matrix(inst, mat)
            checked_matrix(net.instance, back)
            assert matrix_from_circulation(net, back) == mat

    def test_violating_matrix_names_constraint(self):
        inst = asm_instance(2)
        with pytest.raises(BoundViolation) as exc:
            circulation_from_matrix(inst, IntMatrix.from_rows([[2, -1], [-1, 2]]))
        assert "1, 1" in str(exc.value) or "(1,1)" in str(exc.value)


class TestFirstBoundViolation:
    """The fault named for bad cells: entries, then horizontal prefixes row by
    row, then vertical prefixes column by column, then the total."""

    # prefix sums: rows 1, -1, 2 and 4, 9, 3; columns 1, 5 and -2, 3 and 3, -3; total 5
    MAT = IntMatrix.from_rows([[1, -2, 3], [4, 5, -6]])

    @staticmethod
    def instance(cells: dict, alpha=NEG_INF, beta=POS_INF) -> PbmInstance:
        tables = {
            name: [[NEG_INF if name in ("phi1", "phi2", "f") else POS_INF] * 3 for _ in range(2)]
            for name in ("phi1", "gamma1", "phi2", "gamma2", "f", "g")
        }
        for (name, i, j), v in cells.items():
            tables[name][i - 1][j - 1] = fin(v)
        return PbmInstance.create(
            2, 3, *(tables[name] for name in ("phi1", "gamma1", "phi2", "gamma2", "f", "g")),
            alpha, beta,
        )

    @pytest.mark.parametrize(
        "cells, message",
        [
            ({("f", 2, 1): 5}, "entry (2,1) = 4 outside [5, +inf]"),
            ({("g", 1, 3): 2}, "entry (1,3) = 3 outside [-inf, 2]"),
            ({("phi1", 2, 2): 10}, "horizontal prefix (2,2) = 9 outside [10, +inf]"),
            ({("gamma1", 1, 2): -2}, "horizontal prefix (1,2) = -1 outside [-inf, -2]"),
            ({("phi2", 1, 3): 4}, "vertical prefix (1,3) = 3 outside [4, +inf]"),
            ({("gamma2", 2, 2): 2}, "vertical prefix (2,2) = 3 outside [-inf, 2]"),
            # two bad cells: row order names (1,2) first, column order (2,1)
            (
                {("phi1", 1, 2): 0, ("phi1", 2, 1): 5},
                "horizontal prefix (1,2) = -1 outside [0, +inf]",
            ),
            (
                {("phi2", 1, 2): -1, ("phi2", 2, 1): 6},
                "vertical prefix (2,1) = 5 outside [6, +inf]",
            ),
            # an entry fault comes before any prefix fault
            (
                {("gamma1", 1, 1): 0, ("gamma2", 1, 1): 0, ("f", 2, 3): -5},
                "entry (2,3) = -6 outside [-5, +inf]",
            ),
        ],
    )
    def test_first_fault_named(self, cells, message):
        with pytest.raises(BoundViolation) as exc:
            circulation_from_matrix(self.instance(cells), self.MAT)
        assert str(exc.value) == message

    def test_total_named_last(self):
        for alpha, beta, message in [
            (fin(6), POS_INF, "total sum 5 outside [6, +inf]"),
            (NEG_INF, fin(4), "total sum 5 outside [-inf, 4]"),
        ]:
            with pytest.raises(BoundViolation) as exc:
                circulation_from_matrix(self.instance({}, alpha, beta), self.MAT)
            assert str(exc.value) == message
        with pytest.raises(BoundViolation) as exc:
            circulation_from_matrix(self.instance({("gamma2", 2, 3): -4}, fin(6)), self.MAT)
        assert str(exc.value) == "vertical prefix (2,3) = -3 outside [-inf, -4]"


def test_dot_output_mentions_nodes_and_caps():
    net = build_network(asm_instance(1))
    dot = network_to_dot(net)
    assert dot.startswith("digraph")
    assert "+K" in dot and "-K" in dot
    circ = min_cost_circulation(net)
    dot2 = network_to_dot(net, circ)
    assert "digraph" in dot2
    edges = [line.strip() for line in dot2.splitlines() if "->" in line]
    assert edges == [
        'v1_hub -> v1_1_1 [label="A1(1,1) [1,1] z=1"];',
        'v2_1_1 -> v2_hub [label="A2(1,1) [1,1] z=1"];',
        'v1_1_1 -> v2_1_1 [label="N(1,1) [-1,1] z=1"];',
        'v2_hub -> v1_hub [label="a0 [-K,+K] z=1"];',
    ]
    # off the diagonal, a label names its row before its column
    assert '  v1_hub -> v1_1_2 [label="A1(1,2) [1,1]"];' in network_to_dot(
        build_network(asm_instance(2))
    )

