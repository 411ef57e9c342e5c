"""Instance encoders for the special matrix classes and their solvers."""

import functools
import itertools
import random

import pytest

from pbm.core import IntMatrix, SubsetMask, fin
from pbm.asmkit import (
    SPartition,
    WING_PATTERNS,
    _family_from_certificate,
    asm_instance,
    aval_sign_instance,
    brualdi_dahl_instance,
    compatible_asm,
    higher_spin_instance,
    k_regular_instance,
    max_plus_ones_subordinate,
    pasm_instance,
    subordinate_asm,
    sum_majorized_instance,
    wasm_instance,
)
from pbm.errors import BadEntries, BadParams, DimensionMismatch, InternalError
from pbm import oracle
from pbm.feasibility import Certificate, solve


LABELS = ["0", "+1", "-1", "+", "-", "F"]
SIGNS = (-1, 0, 1)
SHAPES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


@functools.lru_cache(maxsize=None)
def all_matrices(m: int, n: int, values: tuple[int, ...]) -> list[IntMatrix]:
    """Every m x n matrix over ``values``, in the oracle's row-major lexicographic order."""
    rows = list(itertools.product(values, repeat=n))
    return [IntMatrix(m, n, grid) for grid in itertools.product(rows, repeat=m)]


def line_sums_of_random_01(rng: random.Random, m: int, n: int) -> tuple[list[int], list[int]]:
    """Row and column sums of a random 0/1 matrix: a Brualdi-Dahl pair with members."""
    grid = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    return [sum(row) for row in grid], [sum(col) for col in zip(*grid)]


def family_cases():
    """(id, instance, predicate, entry values that include every member) per family case."""
    rng = random.Random(5)
    for n in (1, 2, 3):
        yield f"asm({n})", asm_instance(n), oracle.is_asm, SIGNS
    for n, k in [(1, 2), (2, 2), (3, 2), (3, 3)]:
        pred = lambda mt, k=k: oracle.is_k_regular_asm(mt, k)
        yield f"k_regular({n},{k})", k_regular_instance(n, k), pred, SIGNS
    pats = list(WING_PATTERNS)
    for m, n in SHAPES:
        yield f"pasm({m},{n})", pasm_instance(m, n), oracle.is_pasm, SIGNS
        yield f"aval_sign({m},{n})", aval_sign_instance(m, n), oracle.is_aval_sign, SIGNS
        matched = line_sums_of_random_01(rng, m, n)
        loose = [rng.randint(0, n) for _ in range(m)], [rng.randint(0, m) for _ in range(n)]
        cases = [matched, loose]
        if (m, n) == (2, 2):
            cases.append(([2, 1], [1, 2]))
        for r, c in cases:
            pred = lambda mt, r=r, c=c: oracle.is_brualdi_dahl(mt, r, c)
            yield f"brualdi_dahl({r},{c})", brualdi_dahl_instance(r, c), pred, SIGNS
        for _ in range(2):
            rows = [rng.choice(pats) for _ in range(m)]
            cols = [rng.choice(pats) for _ in range(n)]
            pred = lambda mt, r=rows, c=cols: oracle.is_wasm(mt, r, c)
            yield f"wasm({rows},{cols})", wasm_instance(rows, cols), pred, SIGNS
    for n in (1, 2):
        for r in (0, 1, 2):
            # prefix sums in [0, r] keep every entry in [-r, r]
            pred = lambda mt, r=r: oracle.is_higher_spin(mt, r)
            values = tuple(range(-r - 1, r + 2))
            yield f"higher_spin({n},{r})", higher_spin_instance(n, r), pred, values
    bs = [[[1, 2], [2, 3]], [[2, 2], [2, 3]], [[3]], [[0, 2]], [[1], [3]]]
    bs += [[[rng.randint(0, 3) for _ in range(n)] for _ in range(m)] for m, n in [(2, 2)] * 3]
    for rows in bs:
        b = IntMatrix.from_rows(rows)
        pred = lambda mt, b=b: oracle.is_sum_majorized(mt, b)
        # prefix sums in [0, 3] keep every entry in [-3, 3]
        yield f"sum_majorized({rows})", sum_majorized_instance(b), pred, tuple(range(-4, 5))


class TestFamiliesSoundAndComplete:
    @pytest.mark.parametrize(
        "inst, predicate, values",
        [pytest.param(*case[1:], id=case[0]) for case in family_cases()],
    )
    def test_feasible_set_is_the_family(self, inst, predicate, values):
        budget = oracle.EnumerationBudget(max_range_width=len(values))
        got = oracle.enumerate_pbms(inst, budget)
        assert got == [mt for mt in all_matrices(inst.m, inst.n, values) if predicate(mt)]

    def test_every_family_has_members(self):
        # equal empty sets prove little: each family needs cases with members, some on 4+ cells
        budget = oracle.EnumerationBudget(max_range_width=9)
        members: dict[str, list[int]] = {}
        for name, inst, _, _ in family_cases():
            cells = members.setdefault(name.split("(")[0], [])
            if oracle.enumerate_pbms(inst, budget):
                cells.append(inst.m * inst.n)
        assert len(members) == 8
        for family, cells in members.items():
            assert len(cells) >= 3 and max(cells) >= 4, family


class TestInstanceEncoders:
    def test_asm_windows(self):
        inst = asm_instance(3)
        assert inst.phi1.at(1, 2) == fin(0) and inst.phi1.at(1, 3) == fin(1)
        assert inst.gamma1.at(1, 1) == fin(1)
        assert inst.f.at(2, 2) == fin(-1) and inst.g.at(2, 2) == fin(1)

    def test_k_regular_windows(self):
        inst = k_regular_instance(2, 2)
        assert inst.phi1.at(1, 2) == fin(2)
        assert inst.gamma1.at(1, 1) == fin(2)
        mats = oracle.enumerate_pbms(inst)
        assert [mt.to_lists() for mt in mats] == [[[1, 1], [1, 1]]]

    def test_higher_spin_negative_r(self):
        with pytest.raises(BadParams):
            higher_spin_instance(2, -1)

    def test_brualdi_dahl(self):
        inst = brualdi_dahl_instance([2, 1], [1, 2])
        res = solve(inst)
        assert res.is_feasible
        assert oracle.is_brualdi_dahl(res.matrix, [2, 1], [1, 2])

    def test_brualdi_dahl_mismatched_totals_infeasible(self):
        assert not solve(brualdi_dahl_instance([2, 2], [1, 1])).is_feasible

    def test_brualdi_dahl_negative_sum_rejected(self):
        with pytest.raises(BadParams):
            brualdi_dahl_instance([-1], [1])

    def test_sum_majorized_negative_bound_rejected(self):
        with pytest.raises(BadParams):
            sum_majorized_instance(IntMatrix.from_rows([[-1]]))


class TestWasm:
    def test_1x1_tables(self):
        res = solve(wasm_instance(["++"], ["++"]))
        assert res.matrix.to_lists() == [[1]]
        res = solve(wasm_instance(["--"], ["--"]))
        assert res.matrix.to_lists() == [[-1]]

    def test_mixed_pattern_allows_zero_line(self):
        # "+-" rows may be all zero; "++" rows may not
        inst = wasm_instance(["+-", "+-"], ["+-", "+-"])
        mats = oracle.enumerate_pbms(inst)
        assert any(mt.total() == 0 for mt in mats)

    def test_pattern_table_is_frozen(self):
        assert WING_PATTERNS == {
            "++": (0, 1, 1),
            "--": (-1, 0, -1),
            "+-": (0, 1, 0),
            "-+": (-1, 0, 0),
        }

    def test_bad_pattern_rejected(self):
        with pytest.raises(BadParams):
            wasm_instance(["+*"], ["++"])

    def test_solutions_pass_wing_check(self):
        rng = random.Random(71)
        pats = list(WING_PATTERNS)
        for _ in range(20):
            rows = [rng.choice(pats) for _ in range(2)]
            cols = [rng.choice(pats) for _ in range(2)]
            res = solve(wasm_instance(rows, cols))
            if res.is_feasible:
                assert oracle.is_wasm(res.matrix, rows, cols)


class TestSPartition:
    def test_label_round_trip(self):
        labels = [["+1", "0"], ["-", "F"]]
        part = SPartition.from_labels(labels)
        assert part.labels == (("+1", "0"), ("-", "F"))

    def test_bad_label(self):
        with pytest.raises(BadParams):
            SPartition.from_labels([["+1", "2"], ["F", "F"]])

    def test_non_square(self):
        with pytest.raises(BadParams):
            SPartition.from_labels([["F", "F"]])
        with pytest.raises(BadParams):
            SPartition((("F",), ("F",)))
        with pytest.raises(BadParams):
            SPartition(("FF", "FF"))  # rows of characters are not rows of labels

    def test_cells_partition_the_grid(self):
        rng = random.Random(29)
        for _ in range(60):
            n = rng.randint(1, 6)
            grid = [[rng.choice(LABELS) for _ in range(n)] for _ in range(n)]
            part = SPartition.from_labels(grid)
            masks = {lab: part.cells(lab) for lab in LABELS}
            union = SubsetMask.empty(n, n)
            for mask in masks.values():
                union = union | mask
            assert union == SubsetMask.full(n, n)
            assert sum(map(len, masks.values())) == n * n  # so the classes are disjoint
            for lab, mask in masks.items():
                assert all(part.labels[i - 1][j - 1] == lab for i, j in mask.cells)
            assert part.cells("0", "-1", "-") == masks["0"] | masks["-1"] | masks["-"]
            assert part.labels == tuple(map(tuple, grid))
            assert SPartition.from_labels(part.labels) == part



class TestCompatibleAsm:
    def test_all_free_gives_asm(self):
        res = compatible_asm(SPartition.from_labels([["F", "F"], ["F", "F"]]))
        assert res.is_feasible and oracle.is_asm(res.matrix)

    def test_pinned_entries_respected(self):
        part = SPartition.from_labels(
            [["0", "F", "F"], ["F", "-1", "F"], ["F", "F", "F"]]
        )
        res = compatible_asm(part)
        assert res.is_feasible
        assert res.matrix.at(1, 1) == 0 and res.matrix.at(2, 2) == -1
        assert oracle.is_asm(res.matrix)

    def test_corner_minus_one_infeasible_with_family(self):
        res = compatible_asm(SPartition.from_labels([["-1", "F"], ["F", "F"]]))
        assert not res.is_feasible
        fam = res.family
        assert fam.size == 2 and fam.required == 3
        assert fam.uncovered_minus_ones == 1 and fam.twice_covered_plus_ones == 0
        assert fam.size < fam.required
        assert res.certificate.violated in ("gen1a", "gen1b")

    def test_family_of_a_total_window_inequality_is_caught(self):
        # the partition instances leave the total sum open, so only gen1a and gen1b can fail
        part = SPartition.from_labels([["0", "0"], ["0", "0"]])
        empty = SubsetMask.empty(2, 2)
        cert = Certificate(empty, empty, 3, "gen1alfa", fin(1), fin(0))
        with pytest.raises(InternalError, match="^unexpected violated inequality gen1alfa$"):
            _family_from_certificate(part, cert)

    def test_family_matches_exhaustive_search(self):
        # solver verdict == existence of a compatible matrix in the ASM census
        rng = random.Random(13)
        labels = ["0", "+1", "-1", "+", "-", "F"]
        allowed = {
            "0": {0},
            "+1": {1},
            "-1": {-1},
            "+": {0, 1},
            "-": {-1, 0},
            "F": {-1, 0, 1},
        }
        asms = oracle.enumerate_asms(3)
        for _ in range(40):
            grid = [[rng.choice(labels) for _ in range(3)] for _ in range(3)]
            part = SPartition.from_labels(grid)
            res = compatible_asm(part)
            want = [
                mt
                for mt in asms
                if all(mt.at(i, j) in allowed[grid[i - 1][j - 1]] for i in (1, 2, 3) for j in (1, 2, 3))
            ]
            assert res.is_feasible == bool(want)
            if res.is_feasible:
                assert res.matrix in want
            else:
                assert res.family.size < res.family.required


class TestSubordinate:
    def test_identity_is_its_own_subordinate(self):
        res = subordinate_asm(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert res.matrix.to_lists() == [[1, 0], [0, 1]]

    def test_all_ones_has_permutation_subordinate(self):
        res = subordinate_asm(IntMatrix.from_rows([[1, 1, 1]] * 3))
        assert res.is_feasible
        assert oracle.is_asm(res.matrix)
        for i, j, v in res.matrix.cells():
            assert v in (0, 1)

    def test_zero_row_blocks_subordinate(self):
        res = subordinate_asm(IntMatrix.from_rows([[0, 0], [1, 1]]))
        assert not res.is_feasible
        assert res.family.size == 1 and res.family.required == 2

    def test_first_row_zero_3x3(self):
        res = subordinate_asm(IntMatrix.from_rows([[0, 0, 0], [1, 1, 1], [1, 1, 1]]))
        assert not res.is_feasible
        fam = res.family
        assert fam.size == 2 and fam.required == 3
        spans = {(s.orientation, s.line) for s in fam.segments}
        assert spans == {("horizontal", 2), ("horizontal", 3)}

    def test_max_plus_ones_counts(self):
        res = max_plus_ones_subordinate(IntMatrix.from_rows([[1, 1, 1]] * 3))
        assert res.value == 3
        res = max_plus_ones_subordinate(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert res.value == 2

    def test_max_plus_ones_matches_enumeration(self):
        rng = random.Random(19)
        for _ in range(40):
            x = IntMatrix.from_rows(
                [[rng.choice((-1, 0, 1)) for _ in range(3)] for _ in range(3)]
            )
            subs = oracle.enumerate_subordinates(x)
            res = max_plus_ones_subordinate(x)
            if subs:
                want = max(sum(1 for _, _, v in mt.cells() if v == 1) for mt in subs)
                assert res.value == want
                assert res.matrix in subs
            else:
                assert res.matrix is None
                assert res.family.size < res.family.required

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            subordinate_asm(IntMatrix.from_rows([[1, 0]]))

    def test_bad_entries_rejected(self):
        with pytest.raises(BadEntries):
            subordinate_asm(IntMatrix.from_rows([[2, 0], [0, 1]]))
