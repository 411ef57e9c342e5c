"""Equitable integer decomposition and the k-regular ASM splitter."""

import importlib
import random

import pytest

from pbm.core import NEG_INF, POS_INF, IntMatrix, PbmInstance, fin, validate_instance
from pbm.asmkit import asm_instance, k_regular_instance
from pbm.circulation import Circulation, CutWitness, checked_matrix, circulation_from_matrix
from pbm.decompose import Decomposition, _box, _halve, decompose, decompose_k_regular_asm
from pbm.errors import BadParams, InfeasibleInput, InternalError, NotKRegular
from pbm import oracle
from pbm.feasibility import solve

from helpers import (
    feasible_random,
    line_values,
    open_instance,
    random_instance,
    scaled_instance,
    shrink_instance,
)


def signs_agree(part: IntMatrix, whole: IntMatrix) -> bool:
    for i, j, v in part.cells():
        w = whole.at(i, j)
        if w == 0 and v != 0:
            return False
        if w * v < 0:
            return False
    return True


class TestDecompose:
    def test_k1_returns_input(self):
        inst = asm_instance(2)
        a = solve(inst).matrix
        dec = decompose(inst, a, 1)
        assert dec.k == 1 and dec.matrices() == [a]

    def test_zero_matrix_groups_multiplicity(self):
        inst = PbmInstance.create(
            2, 2,
            [[fin(-9), fin(-9)]] * 2, [[fin(9), fin(9)]] * 2,
            [[fin(-9), fin(-9)]] * 2, [[fin(9), fin(9)]] * 2,
        )
        dec = decompose(inst, IntMatrix.zeros(2, 2), 3)
        assert dec.parts == ((IntMatrix.zeros(2, 2), 3),)
        assert dec.total() == IntMatrix.zeros(2, 2)

    def test_parts_meet_shrunk_bounds_and_signs(self):
        rng = random.Random(97)
        for _ in range(30):
            k = rng.randint(2, 4)
            base = feasible_random(rng, rng.randint(1, 3), rng.randint(1, 3))
            inst = scaled_instance(base, k)
            res = solve(inst)
            assert res.is_feasible
            a = res.matrix
            dec = decompose(inst, a, k)
            small = shrink_instance(inst, k)
            total = IntMatrix.zeros(inst.m, inst.n)
            for part, mult in dec.parts:
                assert oracle.matrix_satisfies(small, part)
                assert signs_agree(part, a)
                for _ in range(mult):
                    total = total.add(part)
            assert total == a

    def test_parts_are_equitable(self):
        # each value of a part is A's value divided by k, rounded down or up
        rng = random.Random(5)
        for _ in range(150):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            inst = feasible_random(rng, m, n, inf_rate=0.5, entry_inf_rate=0.3)
            k = rng.randint(1, 8)
            a = solve(inst).matrix
            whole = line_values(a)
            for part in decompose(inst, a, k).matrices():
                for w, p in zip(whole, line_values(part)):
                    assert w // k <= p <= -(-w // k), (a.to_lists(), k, part.to_lists())

    def test_matrix_outside_instance_rejected(self):
        inst = asm_instance(2)
        with pytest.raises(InfeasibleInput):
            decompose(inst, IntMatrix.from_rows([[2, -1], [-1, 2]]), 2)

    def test_k_below_one_rejected(self):
        with pytest.raises(BadParams):
            decompose(asm_instance(2), solve(asm_instance(2)).matrix, 0)

    def test_one_network_per_peel(self, monkeypatch):
        # halvings and the final check build no network, and no peel builds one
        # of the input instance
        mod = importlib.import_module("pbm.decompose")  # the package re-exports the function
        builds = []
        real = mod.build_network

        def counting(inst):
            builds.append(inst)
            return real(inst)

        monkeypatch.setattr(mod, "build_network", counting)
        ones = IntMatrix.from_rows([[1] * 4] * 4)
        assert decompose(k_regular_instance(4, 4), ones, 4).total() == ones
        assert builds == []
        inst = open_instance(4, 5)
        a = random_matrix(random.Random(9), 4, 5)
        for k in (1, 2, 3, 6, 7, 8, 12):
            builds.clear()
            assert decompose(inst, a, k).total() == a
            assert len(builds) == bin(k).count("1") - 1 and inst not in builds, k

    def test_huge_entry_under_infinite_bounds(self):
        # no window is finite: the peeling boxes come from A alone, whatever its size
        open_window = [["-inf", "-inf"]], [["+inf", "+inf"]]
        inst = PbmInstance.create(1, 2, *open_window, *open_window)
        a = IntMatrix.from_rows([[-10**40, 7]])
        dec = decompose(inst, a, 4)
        small = shrink_instance(inst, 4)
        assert dec.total() == a
        for part in dec.matrices():
            assert signs_agree(part, a)
            assert oracle.matrix_satisfies(small, part)

    def test_multiplicities_sum_to_k(self):
        with pytest.raises(Exception):
            Decomposition(parts=((IntMatrix.zeros(1, 1), 2),), k=3)


def random_matrix(rng: random.Random, m: int, n: int) -> IntMatrix:
    span = rng.choice([1, 3, 10**30])
    return IntMatrix.from_rows([[rng.randint(-span, span) for _ in range(n)] for _ in range(m)])


def halves_in_box(a: IntMatrix) -> tuple:
    """Halve A's circulation on an open instance; check both halves and return the first.

    Both halves must be their matrices' circulations within
    floor(z / 2)..ceil(z / 2) on every arc, and add up to z.
    """
    inst = open_instance(a.m, a.n)
    z = circulation_from_matrix(inst, a).flows
    box = _box(a.m, a.n, z, 2)
    first, second = _halve(a.m, a.n, z)
    for half in (first, second):
        checked_matrix(box, Circulation(half))
    assert [x + y for x, y in zip(first, second)] == list(z)
    return first


def count_solves(monkeypatch) -> list:
    """Record every network that ``decompose`` hands to the flow solver."""
    mod = importlib.import_module("pbm.decompose")
    solves = []
    real = mod.min_cost_circulation

    def counting(net):
        solves.append(net)
        return real(net)

    monkeypatch.setattr(mod, "min_cost_circulation", counting)
    return solves


class TestHalve:
    def test_halves_conserve_round_and_add_up(self):
        rng = random.Random(23)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            inst = open_instance(m, n)
            z = circulation_from_matrix(inst, random_matrix(rng, m, n)).flows
            box = _box(m, n, z, 2)
            first, second = _halve(m, n, z)
            for half in (first, second):
                checked_matrix(box, Circulation(half))  # conserves, within the box
            assert [x + y for x, y in zip(first, second)] == list(z)

    def test_all_cycle_input(self):
        # row pairs (1,1)-(1,2), (2,1)-(2,2) and column pairs (1,1)-(2,1), (1,2)-(2,2)
        # close one cycle, so each half takes one entry of every row and column
        first = halves_in_box(IntMatrix.from_rows([[1, 1], [1, 1]]))
        assert sorted(first[8:12]) == [0, 0, 1, 1]
        assert first[8] == first[11] != first[9] == first[10]

    def test_identity_lone_entries_alternate(self):
        # no odd entry has a mate: the total alone decides, and it must round
        for n in range(1, 16):
            first = halves_in_box(IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)]))
            assert first[-1] in (n // 2, -(-n // 2))

    def test_lines(self):
        rng = random.Random(31)
        for m, n in ((1, 500), (500, 1)):
            for span in (1, 3, 10**30):
                halves_in_box(IntMatrix.from_rows(
                    [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]))

    def test_grids_up_to_30x30(self):
        rng = random.Random(37)
        for size in (*range(1, 13), 20, 30):
            for _ in range(3):
                halves_in_box(random_matrix(rng, rng.randint(1, size), size))
                halves_in_box(random_matrix(rng, size, rng.randint(1, size)))

    def test_one_solve_per_1_bit_beyond_the_first(self, monkeypatch):
        solves = count_solves(monkeypatch)
        rng = random.Random(8)
        inst = open_instance(4, 5)
        a = random_matrix(rng, 4, 5)
        for k in [*range(1, 9), 12, 24, 2**20, 2**60 + 1]:
            solves.clear()
            dec = decompose(inst, a, k)
            assert dec.total() == a and dec.k == k
            assert len(solves) == bin(k).count("1") - 1, k

    def test_huge_k_on_open_4x4(self, monkeypatch):
        # A is k times an ASM plus small noise: few distinct parts, whatever k is
        solves = count_solves(monkeypatch)
        rng = random.Random(4)
        k = 2**60 + 1
        asm = [[0, 1, 0, 0], [1, -1, 1, 0], [0, 1, -1, 1], [0, 0, 1, 0]]
        a = IntMatrix.from_rows([[k * v + rng.randint(-3, 3) for v in row] for row in asm])
        dec = decompose(open_instance(4, 4), a, k)
        assert len(solves) == 1
        assert sum(mult for _, mult in dec.parts) == k
        whole = line_values(a)
        for part, _ in dec.parts:
            assert all(w // k <= p <= -(-w // k) for w, p in zip(whole, line_values(part)))
        assert dec.total() == a

    def test_split_that_breaks_conservation_is_caught(self, monkeypatch):
        mod = importlib.import_module("pbm.decompose")
        real = mod._halve

        def unbalanced(m, n, z):
            # swap the rounding on one odd arc: both halves stay within the box
            # and still add up to z, but neither conserves any more
            first, second = map(list, real(m, n, z))
            a = next(a for a, v in enumerate(z) if v % 2 and first[a] == v // 2)
            first[a] += 1
            second[a] -= 1
            return tuple(first), tuple(second)

        monkeypatch.setattr(mod, "_halve", unbalanced)
        inst = open_instance(2, 2)
        with pytest.raises(InternalError, match="conservation"):
            decompose(inst, IntMatrix.from_rows([[1, 2], [3, 5]]), 2)

    def test_peel_that_takes_everything_is_caught(self, monkeypatch):
        mod = importlib.import_module("pbm.decompose")
        real = mod.min_cost_circulation
        inst = open_instance(2, 2)
        a = IntMatrix.from_rows([[1, 2], [3, 5]])
        z_star = circulation_from_matrix(inst, a).flows
        solves = []

        def greedy(net):
            # the first part is the whole residual: it conserves and the parts
            # still add up to A, but it leaves the equitable box
            solves.append(net)
            return Circulation(z_star) if len(solves) == 1 else real(net)

        monkeypatch.setattr(mod, "min_cost_circulation", greedy)
        with pytest.raises(InternalError, match="outside"):
            decompose(inst, a, 7)
        assert len(solves) == 2


    def test_peel_that_finds_no_part_is_caught(self, monkeypatch):
        # k = 3 peels one part off a box instance, which always has one
        mod = importlib.import_module("pbm.decompose")
        monkeypatch.setattr(mod, "min_cost_circulation", lambda net: CutWitness(frozenset(), False, -1))
        with pytest.raises(InternalError, match="^peeling step found no part"):
            decompose(open_instance(2, 2), IntMatrix.from_rows([[1, 0], [0, 1]]), 3)


class TestShrink:
    def test_floor_and_ceil(self):
        inst = PbmInstance.create(
            1, 1, [[fin(-5)]], [[fin(5)]], [[fin(-5)]], [[fin(5)]],
            [[fin(-3)]], [[fin(3)]], fin(-7), fin(7),
        )
        small = shrink_instance(inst, 2)
        # lower bounds round down, upper bounds round up
        assert small.phi1.at(1, 1) == fin(-3)
        assert small.gamma1.at(1, 1) == fin(3)
        assert small.f.at(1, 1) == fin(-2)
        assert small.g.at(1, 1) == fin(2)
        assert small.alpha == fin(-4) and small.beta == fin(4)

    def test_infinite_bounds_survive(self):
        small = shrink_instance(asm_instance(2), 2)
        assert small.phi1.at(1, 1) == fin(0)
        assert small.gamma1.at(1, 2) == fin(1)  # ceil(1/2)
        assert not small.alpha.is_finite and not small.beta.is_finite

    def test_shrunk_bounds_stay_ordered_and_legal(self):
        rng = random.Random(61)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            for inst in (
                random_instance(rng, m, n, inf_rate=0.4),
                feasible_random(rng, m, n, inf_rate=0.4, entry_inf_rate=0.3),
            ):
                for k in range(1, 9):
                    # shrink_instance does not validate; this raises on a broken order
                    validate_instance(shrink_instance(inst, k))

    def test_shrink_undoes_scaling(self):
        rng = random.Random(62)
        for _ in range(40):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            inst = random_instance(rng, m, n, inf_rate=0.4)
            for k in (1, 2, 7):
                assert shrink_instance(scaled_instance(inst, k), k) == inst

    def test_scaling_keeps_infinite_bounds(self):
        big = scaled_instance(asm_instance(2), 3)
        assert big.phi1.at(1, 2) == fin(3) and big.gamma1.at(1, 2) == fin(3)
        assert big.alpha == NEG_INF and big.beta == POS_INF


class TestKRegular:
    def test_single_asm_splits_to_itself(self):
        mats = decompose_k_regular_asm(IntMatrix.from_rows([[1]]), 1)
        assert [mt.to_lists() for mt in mats] == [[[1]]]

    def test_all_ones_2x2(self):
        mats = decompose_k_regular_asm(IntMatrix.from_rows([[1, 1], [1, 1]]), 2)
        assert len(mats) == 2
        assert sorted(mt.to_lists() for mt in mats) == [
            [[0, 1], [1, 0]],
            [[1, 0], [0, 1]],
        ]

    def test_all_ones_3x3(self):
        a = IntMatrix.from_rows([[1, 1, 1]] * 3)
        mats = decompose_k_regular_asm(a, 3)
        assert len(mats) == 3
        total = IntMatrix.zeros(3, 3)
        supports = []
        for mt in mats:
            assert oracle.is_asm(mt)
            supports.append({(i, j) for i, j, v in mt.cells() if v != 0})
            total = total.add(mt)
        assert total == a
        assert supports[0] & supports[1] == set()
        assert supports[0] & supports[2] == set()
        assert supports[1] & supports[2] == set()

    def test_2_regular_3x3(self):
        a = IntMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
        mats = decompose_k_regular_asm(a, 2)
        assert len(mats) == 2
        assert all(oracle.is_asm(mt) for mt in mats)
        assert mats[0].add(mats[1]) == a

    def test_k_below_one_rejected(self):
        with pytest.raises(BadParams, match="^k must be a positive integer, got 0$"):
            decompose_k_regular_asm(IntMatrix.from_rows([[1]]), 0)

    def test_not_square_rejected(self):
        with pytest.raises(NotKRegular):
            decompose_k_regular_asm(IntMatrix.from_rows([[1, 1]]), 1)

    def test_shape_is_checked_before_k(self):
        with pytest.raises(NotKRegular, match="^matrix must be square, got 1x2$"):
            decompose_k_regular_asm(IntMatrix.from_rows([[1, 1]]), 0)

    def test_bad_entry_rejected(self):
        with pytest.raises(NotKRegular) as exc:
            decompose_k_regular_asm(IntMatrix.from_rows([[2, 0], [0, 2]]), 2)
        assert "entry" in str(exc.value)

    def test_wrong_line_sum_rejected(self):
        with pytest.raises(NotKRegular):
            decompose_k_regular_asm(IntMatrix.from_rows([[1, 0], [0, 1]]), 2)

    def test_prefix_out_of_range_rejected(self):
        # line sums are all 1, but the first column's prefix dips to -1
        bad = IntMatrix.from_rows([[-1, 1, 1], [1, 0, 0], [1, 0, 0]])
        with pytest.raises(NotKRegular) as exc:
            decompose_k_regular_asm(bad, 1)
        assert "prefix" in str(exc.value)
