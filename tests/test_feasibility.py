"""Solver entry points: solve, prescriptions, strictness, extremal sums, costs."""

import dataclasses
import random

import pytest

from pbm.core import NEG_INF, POS_INF, IntMatrix, PbmInstance, fin
from pbm.asmkit import asm_instance, max_plus_ones_subordinate, pasm_instance
from pbm.decompose import decompose_k_regular_asm
from pbm import circulation, feasibility, oracle
from pbm.feasibility import (
    Result,
    check_condition,
    check_strict,
    extremal_total_sum,
    optimize_cost,
    pin_entries,
    solve,
)
from pbm.errors import DimensionMismatch, InternalError, PrescriptionOutOfEntryBounds

from helpers import feasible_random, random_instance


class TestCheckedMatrix:
    """Every matrix, ray and part is read through one check against its instance."""

    ALL_ONES = IntMatrix.from_rows([[1, 1, 1]] * 3)
    OPEN_1X2 = PbmInstance.create(1, 2, *([[NEG_INF, NEG_INF]], [[POS_INF, POS_INF]]) * 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: solve(asm_instance(3)),
            lambda: extremal_total_sum(asm_instance(3), "max"),
            lambda: optimize_cost(asm_instance(3), IntMatrix.from_rows([[1, 0, 0]] * 3)),
            lambda: max_plus_ones_subordinate(TestCheckedMatrix.ALL_ONES),
            # the direction of the ray that proves the sum unbounded
            lambda: extremal_total_sum(TestCheckedMatrix.OPEN_1X2, "max"),
            lambda: decompose_k_regular_asm(TestCheckedMatrix.ALL_ONES, 3),
        ],
        ids=["solve", "extremal_total_sum", "optimize_cost", "max_plus_ones_subordinate",
             "unbounded_sum_max", "decompose"],
    )
    def test_corrupted_matrix_is_an_internal_error(self, monkeypatch, call):
        read = circulation.matrix_from_circulation

        def drop_one_plus(net, circ):
            rows = [list(row) for row in read(net, circ).rows]
            i, j = next((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v == 1)
            rows[i][j] = 0
            return IntMatrix.from_rows(rows)

        monkeypatch.setattr(circulation, "matrix_from_circulation", drop_one_plus)
        with pytest.raises(InternalError):
            call()

    def test_subordinate_optimum_is_a_checked_asm(self):
        res = max_plus_ones_subordinate(self.ALL_ONES)
        assert oracle.is_asm(res.matrix) and res.value == 3


class TestSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_asm_instances_feasible(self, n):
        res = solve(asm_instance(n))
        assert res.is_feasible
        assert oracle.is_asm(res.matrix)

    def test_solved_matrix_satisfies_instance(self):
        rng = random.Random(3)
        for _ in range(60):
            inst = feasible_random(rng, rng.randint(1, 3), rng.randint(1, 3))
            res = solve(inst)
            assert res.is_feasible
            assert oracle.matrix_satisfies(inst, res.matrix)

    def test_plank_violation_case4(self):
        inst = dataclasses.replace(asm_instance(2), beta=fin(1))
        res = solve(inst)
        assert not res.is_feasible
        cert = res.certificate
        assert cert.case == 4 and cert.violated == "gen1beta"
        assert cert.lhs == fin(2) and cert.rhs == fin(1)

    def test_entry_bound_violation_gen1a(self):
        inst = asm_instance(2)
        f = [[v for v in row] for row in inst.f.to_lists()]
        g = [[v for v in row] for row in inst.g.to_lists()]
        f[0][0] = -1
        g[0][0] = -1
        pinned = PbmInstance.create(
            2, 2, inst.phi1.to_lists(), inst.gamma1.to_lists(),
            inst.phi2.to_lists(), inst.gamma2.to_lists(), f, g,
        )
        res = solve(pinned)
        assert not res.is_feasible
        cert = res.certificate
        assert cert.violated == "gen1a"
        assert cert.lhs == fin(0) and cert.rhs == fin(-1)

    def test_certificate_reevaluates_strictly(self):
        rng = random.Random(17)
        found = 0
        while found < 30:
            inst = random_instance(rng, rng.randint(1, 3), rng.randint(1, 3))
            res = solve(inst)
            if res.is_feasible:
                continue
            cert = res.certificate
            ev = check_condition(inst, cert.x1, cert.x2)
            rec = ev.by_name(cert.violated)
            assert rec.lhs == cert.lhs and rec.rhs == cert.rhs
            assert rec.lhs > rec.rhs
            found += 1


class TestPrescription:
    def test_pin_corner_forces_identity(self):
        res = solve(pin_entries(asm_instance(2), [(1, 1, 1)]))
        assert res.matrix.to_lists() == [[1, 0], [0, 1]]

    def test_contradictory_pins_yield_certificate(self):
        res = solve(pin_entries(asm_instance(2), [(1, 1, 1), (2, 2, 0)]))
        assert not res.is_feasible
        assert res.certificate.lhs > res.certificate.rhs

    def test_center_minus_one_is_unique(self):
        res = solve(pin_entries(asm_instance(3), [(2, 2, -1)]))
        assert res.matrix.to_lists() == [[0, 1, 0], [1, -1, 1], [0, 1, 0]]

    def test_value_outside_entry_bounds_rejected(self):
        # the first bad pin in (i, j) order is named
        with pytest.raises(PrescriptionOutOfEntryBounds) as exc:
            pin_entries(asm_instance(2), [(2, 2, -2), (1, 1, 0), (1, 2, 2)])
        assert str(exc.value) == "prescribed (1,2) = 2 outside [-1, 1]"

    @pytest.mark.parametrize(
        "pins, message",
        [
            ([(3, 1, 0)], "cell (3,1) outside 2x2 grid"),
            ([(1, 1, 1), (1, 1, 0)], "prescribed values must cover the mask exactly once"),
        ],
        ids=["outside-grid", "duplicate-cell"],
    )
    def test_bad_cells_rejected(self, pins, message):
        with pytest.raises(DimensionMismatch) as exc:
            pin_entries(asm_instance(2), pins)
        assert str(exc.value) == message

    def test_feasible_set_is_the_pinned_subset(self):
        # the pinned instance admits exactly the matrices that keep every pin
        rng = random.Random(31)
        completed = 0
        for trial in range(240):
            make = feasible_random if trial % 2 else random_instance
            inst = make(rng, rng.randint(1, 3), rng.randint(1, 3))
            cells = [(i, j) for i in range(1, inst.m + 1) for j in range(1, inst.n + 1)]
            picked = rng.sample(cells, rng.randint(1, min(3, len(cells))))
            pins = [
                (i, j, rng.randint(inst.f.at(i, j).value, inst.g.at(i, j).value))
                for i, j in picked
            ]
            want = [
                mt for mt in oracle.enumerate_pbms(inst)
                if all(mt.at(i, j) == v for i, j, v in pins)
            ]
            assert oracle.enumerate_pbms(pin_entries(inst, pins)) == want
            completed += bool(want)
        assert completed >= 60


class TestStrict:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_asm_is_strict(self, n):
        res = check_strict(asm_instance(n))
        assert res.is_strict and res.common_sum == n

    def test_pasm_is_not_strict(self):
        res = check_strict(pasm_instance(2, 2))
        assert not res.is_strict
        assert res.mismatch is not None

    def test_unbalanced_row_column_totals(self):
        # rows forced to sum 1 each (total 2), columns to 0 each (total 0)
        inst = PbmInstance.create(
            2, 2,
            [[fin(0), fin(1)], [fin(0), fin(1)]],
            [[fin(1), fin(1)], [fin(1), fin(1)]],
            [[fin(0), fin(0)], [fin(0), fin(0)]],
            [[fin(1), fin(0)], [fin(1), fin(0)]],
        )
        res = check_strict(inst)
        assert not res.is_strict


class TestExtremal:
    def test_asm3_sum_is_pinned(self):
        for direction in ("max", "min"):
            res = extremal_total_sum(asm_instance(3), direction)
            assert res.status == "optimal" and res.value == 3
            assert res.matrix.total() == 3

    def test_pasm_2x2_range(self):
        # row sums live in [0,1], so totals span exactly 0..2
        inst = pasm_instance(2, 2)
        hi = extremal_total_sum(inst, "max")
        lo = extremal_total_sum(inst, "min")
        assert (hi.status, hi.value) == ("optimal", 2)
        assert (lo.status, lo.value) == ("optimal", 0)
        want_lo, want_hi = oracle.oracle_extremal_sums(inst)
        assert want_lo == fin(lo.value) and want_hi == fin(hi.value)

    def test_unbounded_direction_detected(self):
        inst = PbmInstance.create(
            1, 1, [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]]
        )
        assert extremal_total_sum(inst, "max").status == "unbounded"
        assert extremal_total_sum(inst, "min").status == "optimal"

    def test_infeasible_reports_certificate(self):
        inst = PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]])
        res = extremal_total_sum(inst, "max")
        assert res.status == "infeasible"
        assert res.certificate is not None

    def test_plank_pins_pasm_total(self):
        inst = dataclasses.replace(pasm_instance(2, 2), alpha=fin(2), beta=fin(2))
        res = solve(inst)
        assert res.is_feasible and res.matrix.total() == 2

    def test_plank_is_ignored_by_design(self):
        inst = dataclasses.replace(asm_instance(2), alpha=fin(5), beta=fin(5))
        assert not solve(inst).is_feasible
        # extremal sums describe the instance without its plank
        res = extremal_total_sum(inst, "max")
        assert res.status == "optimal" and res.value == 2

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            extremal_total_sum(asm_instance(2), "sideways")

    def test_matches_oracle_on_random_feasible(self):
        rng = random.Random(29)
        done = 0
        while done < 20:
            inst = feasible_random(rng, 2, 2)
            if not solve(inst).is_feasible:
                continue
            lo, hi = oracle.oracle_extremal_sums(inst)
            for direction, want in (("min", lo), ("max", hi)):
                got = extremal_total_sum(inst, direction)
                if want.is_finite:
                    assert (got.status, got.value) == ("optimal", want.value)
                else:
                    assert got.status == "unbounded"
            done += 1


class TestOptimizeCost:
    @pytest.mark.parametrize(
        "call, message",
        [
            (circulation.circulation_from_matrix, "matrix is 1x2, instance is 2x2"),
            (optimize_cost, "cost matrix is 1x2, instance is 2x2"),
        ],
        ids=["circulation", "costs"],
    )
    def test_matrix_of_wrong_shape_rejected(self, call, message):
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            call(asm_instance(2), IntMatrix.from_rows([[1, 0]]))

    def test_asm2_diagonal_reward(self):
        costs = IntMatrix.from_rows([[-1, 0], [0, -1]])
        res = optimize_cost(asm_instance(2), costs, "min")
        assert res.status == "optimal" and res.value == -2
        assert res.matrix.to_lists() == [[1, 0], [0, 1]]

    def test_max_equals_negated_min(self):
        rng = random.Random(41)
        inst = asm_instance(3)
        for _ in range(10):
            costs = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            )
            neg = IntMatrix.from_rows([[-v for v in row] for row in costs.to_lists()])
            a = optimize_cost(inst, costs, "max")
            b = optimize_cost(inst, neg, "min")
            assert a.status == b.status == "optimal"
            assert a.value == -b.value

    def test_plank_respected(self):
        inst = dataclasses.replace(pasm_instance(2, 2), alpha=fin(2), beta=fin(2))
        costs = IntMatrix.from_rows([[1, 1], [1, 1]])
        res = optimize_cost(inst, costs, "min")
        # every feasible matrix has total exactly 2
        assert res.status == "optimal" and res.value == 2

    def test_unbounded_cost(self):
        inst = PbmInstance.create(
            1, 1, [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]]
        )
        res = optimize_cost(inst, IntMatrix.from_rows([[1]]), "max")
        assert res.status == "unbounded"

    def test_infeasible_cost(self):
        inst = PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]])
        res = optimize_cost(inst, IntMatrix.from_rows([[1]]), "min")
        assert res.status == "infeasible" and res.certificate is not None

    def test_matches_enumeration(self):
        rng = random.Random(53)
        inst = asm_instance(3)
        mats = oracle.enumerate_pbms(inst)
        assert len(mats) == 7
        for _ in range(10):
            costs = IntMatrix.from_rows(
                [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            )
            want = min(
                sum(costs.at(i, j) * mt.at(i, j) for i, j, _ in costs.cells())
                for mt in mats
            )
            got = optimize_cost(inst, costs, "min")
            assert got.status == "optimal" and got.value == want


class TestOneLoop:
    """Feasibility and optimization share one primal-dual loop on one graph."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda inst, costs: solve(inst),
            lambda inst, costs: extremal_total_sum(inst, "max"),
            lambda inst, costs: optimize_cost(inst, costs, "min"),
        ],
        ids=["solve", "extremal_total_sum", "optimize_cost"],
    )
    def test_one_residual_graph_per_solve(self, monkeypatch, call):
        rng = random.Random(20)
        inst = feasible_random(rng, 20, 20)
        costs = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(20)] for _ in range(20)])
        counts = {"solves": 0, "graphs": 0}
        solver, graph = feasibility.min_cost_circulation, circulation._FlowGraph

        def counted_solve(*args, **kwargs):
            counts["solves"] += 1
            return solver(*args, **kwargs)

        class CountedGraph(graph):
            __slots__ = ()

            def __init__(self, node_count, *arcs):
                counts["graphs"] += 1
                super().__init__(node_count, *arcs)

        monkeypatch.setattr(feasibility, "min_cost_circulation", counted_solve)
        monkeypatch.setattr(circulation, "_FlowGraph", CountedGraph)
        assert call(inst, costs).matrix is not None
        assert counts == {"solves": 1, "graphs": 1}

    def test_priced_solves_are_infeasible_exactly_when_solve_is(self):
        # most of these priced cuts appear only after Dijkstra has raised the potentials
        rng = random.Random(71)
        seen = {True: 0, False: 0}
        for _ in range(100):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            # open windows make a few instances feasible
            inst = random_instance(rng, m, n, inf_rate=0.6)
            costs = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
            feasible = solve(inst).is_feasible
            seen[feasible] += 1
            for direction in ("min", "max"):
                res = optimize_cost(inst, costs, direction)
                assert (res.status == "infeasible") == (not feasible)
                assert (res.certificate is not None) == (not feasible)
            relaxed = dataclasses.replace(inst, alpha=NEG_INF, beta=POS_INF)
            relaxed_feasible = solve(relaxed).is_feasible
            for direction in ("min", "max"):
                res = extremal_total_sum(inst, direction)
                assert (res.status == "infeasible") == (not relaxed_feasible)
        assert seen[True] >= 3 and seen[False] >= 80


@pytest.mark.parametrize(
    "status, carries",
    [
        ("infeasible", "matrix"),
        ("infeasible", "both"),
        ("optimal", "certificate"),
        ("feasible", "certificate"),
        ("feasible", "neither"),
        ("optimal", "neither"),
        ("unbounded", "matrix"),
    ],
)
def test_inconsistent_result_is_an_internal_error(status, carries):
    good = solve(asm_instance(2))
    cert = solve(PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]]))
    matrix = good.matrix if carries in ("matrix", "both") else None
    certificate = cert.certificate if carries in ("certificate", "both") else None
    with pytest.raises(InternalError):
        Result(status, matrix, certificate)


def test_result_shape_is_exclusive():
    res = solve(asm_instance(2))
    assert res.is_feasible and res.certificate is None
    bad = solve(PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]]))
    assert not bad.is_feasible and bad.matrix is None
