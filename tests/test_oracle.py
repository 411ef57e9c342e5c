"""The brute-force enumeration oracle and the class-membership predicates."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pbm.core import IntMatrix, PbmInstance, SubsetMask, fin
from pbm.asmkit import asm_instance, pasm_instance
from pbm.errors import BudgetExceeded
from pbm import oracle
from pbm.oracle import (
    EnumerationBudget,
    brute_force_condition,
    enumerate_asms,
    enumerate_pbms,
    enumerate_pbms_noprune,
    enumerate_subordinates,
    line_polytope_minmax,
    matrix_satisfies,
    oracle_extremal_sums,
)

from helpers import feasible_random, random_instance


class TestEnumerate:
    def test_asm_census(self):
        assert [len(enumerate_pbms(asm_instance(n))) for n in (1, 2, 3)] == [1, 2, 7]

    def test_pruned_equals_unpruned(self):
        rng = random.Random(31)
        for _ in range(40):
            inst = random_instance(rng, rng.randint(1, 2), rng.randint(1, 3))
            a = [mt.to_lists() for mt in enumerate_pbms(inst)]
            b = [mt.to_lists() for mt in enumerate_pbms_noprune(inst)]
            assert a == b

    def test_every_enumerated_matrix_satisfies(self):
        rng = random.Random(37)
        for _ in range(25):
            inst = feasible_random(rng, 2, 2)
            mats = enumerate_pbms(inst)
            assert mats
            for mt in mats:
                assert matrix_satisfies(inst, mt)

    def test_output_is_sorted_and_unique(self):
        mats = enumerate_pbms(pasm_instance(2, 2))
        lists = [mt.to_lists() for mt in mats]
        assert lists == sorted(lists)
        assert len(set(map(str, lists))) == len(lists)

    def test_budget_on_cells(self):
        inst = asm_instance(4)
        with pytest.raises(BudgetExceeded):
            enumerate_pbms(inst, EnumerationBudget(max_cells=9))

    def test_budget_on_unbounded_entries(self):
        from pbm.core import POS_INF

        inst = PbmInstance.create(1, 1, [[fin(0)]], [[POS_INF]], [[fin(0)]], [[POS_INF]])
        with pytest.raises(BudgetExceeded):
            enumerate_pbms(inst)

    @pytest.mark.parametrize("max_dim", ["0", "4"])
    def test_stress_script_rejects_grids_past_the_budget(self, max_dim):
        # rows and columns up to max-dim must fit the budget's cells, and at least one
        script = Path(__file__).resolve().parent.parent / "scripts" / "random_stress.py"
        env = {**os.environ, "PYTHONPATH": str(script.parent.parent / "src")}
        run = subprocess.run(
            [sys.executable, str(script), "--max-dim", max_dim, "--count", "1"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 2 and run.stdout == ""
        assert "--max-dim must be in 1..3" in run.stderr
        assert f"max_cells = {oracle.DEFAULT_BUDGET.max_cells} cells" in run.stderr

    @pytest.mark.parametrize(
        "args", [["asm_census.py", "--max-n", "2"], ["random_stress.py", "--count", "5", "--seed", "1"]]
    )
    def test_scripts_run_from_a_plain_checkout(self, args, tmp_path):
        # -S skips site-packages, so an installed pbm cannot stand in for src/
        script = Path(__file__).resolve().parent.parent / "scripts" / args[0]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, "-S", str(script), *args[1:]],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert run.returncode == 0, run.stderr


class TestMatrixSatisfies:
    def test_accepts_and_rejects(self):
        inst = asm_instance(2)
        assert matrix_satisfies(inst, IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert not matrix_satisfies(inst, IntMatrix.from_rows([[1, 1], [0, 0]]))

    def test_plank(self):
        import dataclasses

        inst = dataclasses.replace(asm_instance(2), beta=fin(1))
        assert not matrix_satisfies(inst, IntMatrix.from_rows([[1, 0], [0, 1]]))


class TestBruteForceCondition:
    def test_full_scan_on_small_instance(self):
        inst = PbmInstance.create(1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]])
        rep = brute_force_condition(inst)
        assert not rep.all_hold and not rep.sampled
        worst = rep.by_name("gen1a")
        assert worst is not None and not worst.holds

    def test_sampled_flag_on_larger_grids(self):
        rng = random.Random(43)
        inst = feasible_random(rng, 3, 3)
        rep = brute_force_condition(inst, samples=500)
        assert rep.sampled

    def test_budget_on_very_large_grids(self):
        rng = random.Random(47)
        inst = feasible_random(rng, 4, 4)
        with pytest.raises(BudgetExceeded):
            brute_force_condition(inst)


class TestExtremalSums:
    def test_asm2(self):
        assert oracle_extremal_sums(asm_instance(2)) == (fin(2), fin(2))

    def test_pasm(self):
        assert oracle_extremal_sums(pasm_instance(2, 2)) == (fin(0), fin(2))


class TestLinePolytope:
    def test_single_row(self):
        inst = PbmInstance.create(
            1, 2, [[fin(0), fin(0)]], [[fin(1), fin(2)]], [[fin(-9), fin(-9)]], [[fin(9), fin(9)]]
        )
        full = SubsetMask.full(1, 2)
        assert line_polytope_minmax(inst, full, "horizontal") == (0, 2)
        first = SubsetMask.from_cells(1, 2, [(1, 1)])
        assert line_polytope_minmax(inst, first, "horizontal") == (0, 1)

    def test_infinite_window_rejected(self):
        from pbm.core import NEG_INF, POS_INF

        inst = PbmInstance.create(1, 1, [[NEG_INF]], [[POS_INF]], [[fin(0)]], [[fin(0)]])
        with pytest.raises(BudgetExceeded):
            line_polytope_minmax(inst, SubsetMask.full(1, 1), "horizontal")


class TestPredicates:
    def test_is_asm(self):
        assert oracle.is_asm(IntMatrix.from_rows([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))
        assert not oracle.is_asm(IntMatrix.from_rows([[1, 0], [1, 0]]))
        assert not oracle.is_asm(IntMatrix.from_rows([[1, -1], [0, 1]]))

    def test_is_k_regular(self):
        assert oracle.is_k_regular_asm(IntMatrix.from_rows([[1, 1], [1, 1]]), 2)
        assert not oracle.is_k_regular_asm(IntMatrix.from_rows([[1, 0], [0, 1]]), 2)

    def test_is_pasm(self):
        assert oracle.is_pasm(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert oracle.is_pasm(IntMatrix.from_rows([[0, 1], [1, -1]]))
        assert not oracle.is_pasm(IntMatrix.from_rows([[0, 0], [0, -1]]))

    def test_is_higher_spin(self):
        assert oracle.is_higher_spin(IntMatrix.from_rows([[2]]), 2)
        assert not oracle.is_higher_spin(IntMatrix.from_rows([[1]]), 2)

    def test_is_aval_sign(self):
        assert oracle.is_aval_sign(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert not oracle.is_aval_sign(IntMatrix.from_rows([[0, -1], [0, 0]]))

    def test_is_brualdi_dahl(self):
        mat = IntMatrix.from_rows([[1, 1], [0, 1]])
        assert oracle.is_brualdi_dahl(mat, [2, 1], [1, 2])
        assert not oracle.is_brualdi_dahl(mat, [2, 1], [2, 1])

    def test_is_sum_majorized(self):
        # prefixes stay within [0, B] and every full line hits B's end value
        b = IntMatrix.from_rows([[1, 2], [2, 3]])
        assert oracle.is_sum_majorized(IntMatrix.from_rows([[1, 1], [1, 2]]), b)
        assert not oracle.is_sum_majorized(IntMatrix.from_rows([[2, 0], [0, 0]]), b)
        assert not oracle.is_sum_majorized(IntMatrix.from_rows([[1, 1], [2, 1]]), b)

    def test_is_wasm(self):
        assert oracle.is_wasm(IntMatrix.from_rows([[1]]), ["++"], ["++"])
        assert not oracle.is_wasm(IntMatrix.from_rows([[-1]]), ["++"], ["++"])
        # all-zero line is fine for a mixed pattern but not for ++
        assert oracle.is_wasm(IntMatrix.from_rows([[0]]), ["+-"], ["+-"])
        assert not oracle.is_wasm(IntMatrix.from_rows([[0]]), ["++"], ["+-"])


class TestSubordinateEnumeration:
    def test_identity(self):
        x = IntMatrix.from_rows([[1, 0], [0, 1]])
        subs = enumerate_subordinates(x)
        assert [mt.to_lists() for mt in subs] == [[[1, 0], [0, 1]]]

    def test_zeroing_only(self):
        x = IntMatrix.from_rows([[1, 1], [1, 1]])
        for sub in enumerate_subordinates(x):
            for i, j, v in sub.cells():
                assert v in (0, x.at(i, j))

    def test_too_many_nonzeros_rejected(self):
        x = IntMatrix.from_rows([[1] * 5] * 5)
        with pytest.raises(BudgetExceeded):
            enumerate_subordinates(x)


class TestAsmEnumeration:
    def test_census(self):
        assert [len(enumerate_asms(n)) for n in (1, 2, 3, 4)] == [1, 2, 7, 42]

    def test_all_validated(self):
        for mt in enumerate_asms(3):
            assert oracle.is_asm(mt)
