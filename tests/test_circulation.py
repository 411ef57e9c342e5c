"""Network construction, Hoffman feasibility, min-cost solving, certificates."""

import random

import pytest

from pbm.core import NEG_INF, POS_INF, IntMatrix, PbmInstance, fin
from pbm.asmkit import asm_instance
from pbm.circulation import (
    NegativeCycle,
    _greedy_start,
    build_network,
    check_circulation,
    circulation_from_matrix,
    cut_to_certificate,
    find_feasible_circulation,
    make_cut_witness,
    matrix_from_circulation,
    min_cost_circulation,
    network_from_bounds,
    network_to_dot,
    CutWitness,
)
from pbm.errors import BoundViolation, InternalError
from pbm.feasibility import extremal_total_sum, solve

from helpers import feasible_random, random_instance


def contradictory_1x1() -> PbmInstance:
    # horizontal window pins the entry to 1, vertical window pins it to 0
    return PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]])


class TestNetworkShape:
    def test_1x1_asm(self):
        net = build_network(asm_instance(1))
        assert net.node_count == 4
        assert len(net.arcs) == 4
        a1 = net.arcs[net.a1_id(1, 1)]
        assert (a1.lower, a1.upper) == (1, 1)
        n_arc = net.arcs[net.n_arc_id(1, 1)]
        assert (n_arc.lower, n_arc.upper) == (-1, 1)
        a0 = net.arcs[net.a0_id]
        assert (a0.lower, a0.upper) == (-net.big_k, net.big_k)

    def test_2x2_counts(self):
        net = build_network(asm_instance(2))
        assert net.node_count == 10
        assert len(net.arcs) == 13

    def test_arc_endpoints_concatenate_prefixes(self):
        net = build_network(asm_instance(2))
        # horizontal arc at (i, j) carries the j-th prefix sum of row i
        arc = net.arcs[net.a1_id(1, 1)]
        assert arc.tail == net.v1_node(1, 2) and arc.head == net.v1_node(1, 1)
        last = net.arcs[net.a1_id(1, 2)]
        assert last.tail == net.v1_hub
        # vertical arcs run downward into the hub
        vlast = net.arcs[net.a2_id(2, 1)]
        assert vlast.head == net.v2_hub

    def test_big_k_dominates_finite_bounds(self):
        from pbm.circulation import instance_arc_bounds

        inst = asm_instance(3)
        lower, upper = instance_arc_bounds(inst)
        finite_total = sum(
            abs(b.value) for b in list(lower) + list(upper) if b.is_finite
        )
        net = build_network(inst)
        # K must exceed twice the total finite mass for cut deficits to stay
        # negative after the substitution
        assert net.big_k == 1 + 2 * finite_total + inst.m * inst.n
        assert net.big_k > 2 * finite_total

    def test_lower_above_upper_rejected(self):
        with pytest.raises(InternalError):
            network_from_bounds(1, 1, [fin(1)] * 4, [fin(0)] * 4)


class TestFeasibility:
    def test_asm2_circulation(self):
        net = build_network(asm_instance(2))
        circ = find_feasible_circulation(net)
        assert not isinstance(circ, CutWitness)
        check_circulation(net, circ)
        mat = matrix_from_circulation(net, circ)
        assert sorted(mat.to_lists()) in ([[0, 1], [1, 0]], [[1, 0], [0, 1]])

    def test_contradictory_instance_yields_cut(self):
        net = build_network(contradictory_1x1())
        witness = find_feasible_circulation(net)
        assert isinstance(witness, CutWitness)
        assert witness.deficit < 0
        again = make_cut_witness(net, witness.nodes)
        assert again.deficit == witness.deficit

    def test_make_cut_witness_rejects_nonviolating_set(self):
        net = build_network(asm_instance(1))
        with pytest.raises(InternalError):
            make_cut_witness(net, frozenset({0}))


class TestCertificate:
    def test_contradictory_1x1_case1(self):
        net = build_network(contradictory_1x1())
        witness = find_feasible_circulation(net)
        x1, x2, case, record = cut_to_certificate(net, witness)
        assert case == 1 and record.name == "gen1a"
        assert not record.holds
        assert x1.sorted_cells() == [(1, 1)]
        assert x2.sorted_cells() == [(1, 1)]

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
            got = find_feasible_circulation(net)
            if not isinstance(got, CutWitness):
                continue
            x1, x2, case, record = cut_to_certificate(net, got)
            seen_cases.add(case)
            assert record.name in ("gen1a", "gen1b", "gen1alfa", "gen1beta")
            assert not record.holds
        assert seen_cases  # at least one infeasible instance appeared


class TestMinCost:
    def test_asm3_cost_minimum(self):
        inst = asm_instance(3)
        net = build_network(inst)
        # reward the diagonal
        cost = {net.n_arc_id(i, i): -1 for i in range(1, 4)}
        circ = min_cost_circulation(net, cost=cost)
        assert not isinstance(circ, CutWitness)
        check_circulation(net, circ)
        mat = matrix_from_circulation(net, circ)
        assert mat.to_lists() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_zero_cost_still_feasible(self):
        net = build_network(asm_instance(2))
        circ = min_cost_circulation(net)
        check_circulation(net, circ)

    def test_infeasible_returns_cut(self):
        net = build_network(contradictory_1x1())
        got = min_cost_circulation(net)
        assert isinstance(got, CutWitness)

    def test_unbounded_returns_negative_cycle(self):
        # the entry and both prefix windows are open above, so rewarding the
        # entry has no limit; the proof is the cycle through the entry arc
        inst = PbmInstance.create(
            1, 1, [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]]
        )
        net = build_network(inst)
        got = min_cost_circulation(net, cost={net.n_arc_id(1, 1): -1})
        assert isinstance(got, NegativeCycle)
        assert got.cost < 0
        assert (net.n_arc_id(1, 1), 1) in got.steps


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
        assert info["augmentations"] <= 4
        info = {}
        best = extremal_total_sum(inst, "max", info)
        assert (best.status, best.value) == ("optimal", 0)
        assert info["augmentations"] <= 4


def assert_start_in_bounds(inst: PbmInstance) -> None:
    net = build_network(inst)
    start = _greedy_start(net)
    assert len(start) == len(net.arcs)
    for arc in net.arcs:
        assert arc.lower <= start[arc.id] <= arc.upper, arc.tag


class TestGreedyStart:
    def test_random_instances_with_infinite_sides(self):
        rng = random.Random(31)
        for _ in range(60):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            assert_start_in_bounds(random_instance(rng, m, n, inf_rate=0.5))
            assert_start_in_bounds(feasible_random(rng, m, n, inf_rate=0.5, entry_inf_rate=0.3))

    def test_huge_bounds(self):
        assert_start_in_bounds(huge_bounds_2x2()[0])

    @pytest.mark.parametrize("n", [1200, 5000])
    def test_long_rows(self, n):
        assert_start_in_bounds(one_row_path(n))

    def test_max_flow_repairs_little_on_45x45(self):
        inst = feasible_random(random.Random(45), 45, 45)
        info: dict = {}
        assert solve(inst, info).is_feasible
        # starting every arc at its lower bound took 2692 augmenting paths here
        assert info["augmentations"] <= 2692 // 4
        assert 0 < info["phases"] <= info["augmentations"]


class TestMatrixRoundTrip:
    def test_round_trip_on_random_feasible(self):
        rng = random.Random(7)
        for _ in range(40):
            inst = feasible_random(rng, rng.randint(1, 3), rng.randint(1, 3))
            net = build_network(inst)
            circ = find_feasible_circulation(net)
            assert not isinstance(circ, CutWitness)
            mat = matrix_from_circulation(net, circ)
            back = circulation_from_matrix(inst, mat)
            check_circulation(net, back)
            assert matrix_from_circulation(net, back) == mat

    def test_violating_matrix_names_constraint(self):
        inst = asm_instance(2)
        with pytest.raises(BoundViolation) as exc:
            circulation_from_matrix(inst, IntMatrix.from_rows([[2, -1], [-1, 2]]))
        assert "1, 1" in str(exc.value) or "(1,1)" in str(exc.value)


def test_dot_output_mentions_nodes_and_caps():
    net = build_network(asm_instance(1))
    dot = network_to_dot(net)
    assert dot.startswith("digraph")
    assert "+K" in dot and "-K" in dot
    circ = find_feasible_circulation(net)
    dot2 = network_to_dot(net, circ)
    assert "digraph" in dot2


def test_extra_finite_widens_big_k():
    inst = asm_instance(2)
    from pbm.circulation import instance_arc_bounds

    lower, upper = instance_arc_bounds(inst)
    base = network_from_bounds(2, 2, lower, upper, instance=inst)
    wide = network_from_bounds(2, 2, lower, upper, instance=inst, extra_finite=10)
    assert wide.big_k == base.big_k + 20
