"""End-to-end CLI behavior: exit codes, JSON documents, oracle cross-checks."""

import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbm import cli
from pbm.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, EXIT_UNBOUNDED, main
from pbm.core import IntMatrix, instance_to_json
from pbm.asmkit import asm_instance, pasm_instance
from pbm import oracle

from helpers import feasible_random


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


@pytest.fixture
def asm2_file(tmp_path):
    return write_json(tmp_path / "asm2.json", instance_to_json(asm_instance(2)))


@pytest.fixture
def bad1x1_file(tmp_path):
    doc = {
        "m": 1,
        "n": 1,
        "phi1": [[1]],
        "gamma1": [[1]],
        "phi2": [[0]],
        "gamma2": [[0]],
    }
    return write_json(tmp_path / "bad.json", doc)


class TestCheckSolve:
    def test_check_feasible(self, capsys, asm2_file):
        code, doc, err = run(capsys, "check", asm2_file)
        assert code == EXIT_OK
        assert doc["status"] == "feasible"
        assert "matrix" not in doc
        assert doc["diagnostics"]["arcs"] == 13
        assert "feasible" in err

    def test_diagnostics_count_phases(self, capsys, tmp_path):
        # an ASM instance starts as a circulation; this grid still needs the flow
        inst = feasible_random(random.Random(45), 45, 45)
        path = write_json(tmp_path / "random45.json", instance_to_json(inst))
        _, doc, _ = run(capsys, "check", path)
        diag = doc["diagnostics"]
        assert diag["pushes"] > 0

    def test_solve_returns_matrix(self, capsys, asm2_file):
        code, doc, _ = run(capsys, "solve", asm2_file)
        assert code == EXIT_OK
        assert doc["matrix"] in ([[1, 0], [0, 1]], [[0, 1], [1, 0]])

    def test_infeasible_certificate(self, capsys, bad1x1_file):
        code, doc, err = run(capsys, "check", bad1x1_file)
        assert code == EXIT_INFEASIBLE
        cert = doc["certificate"]
        # the printed keys are Certificate's fields, in the order docs/schema.md gives
        assert list(cert) == ["x1", "x2", "case", "violated", "lhs", "rhs"]
        assert cert["violated"] == "gen1a" and cert["case"] == 1
        assert cert["lhs"] == 1 and cert["rhs"] == 0
        assert cert["x1"] == [[1, 1]] and cert["x2"] == [[1, 1]]
        assert "gen1a" in err

    def test_line_cut_diagnostics(self, capsys, bad1x1_file):
        # the line cut builds no residual graph, yet reports the network it read
        _, doc, _ = run(capsys, "check", bad1x1_file)
        diag = doc["diagnostics"]
        assert (diag["arcs"], diag["nodes"], diag["pushes"], diag["relabels"]) == (4, 4, 0, 0)

    def test_prescribe_inline(self, capsys, asm2_file):
        code, doc, _ = run(capsys, "solve", asm2_file, "--prescribe", "[[1,1,1]]")
        assert code == EXIT_OK
        assert doc["matrix"] == [[1, 0], [0, 1]]

    def test_prescribe_from_file(self, capsys, tmp_path, asm2_file):
        pfile = write_json(tmp_path / "pins.json", [[1, 1, 1], [2, 2, 0]])
        code, doc, _ = run(capsys, "solve", asm2_file, "--prescribe", f"@{pfile}")
        assert code == EXIT_INFEASIBLE
        assert doc["certificate"]["lhs"] > doc["certificate"]["rhs"]

    def test_stdin_instance(self, capsys, monkeypatch):
        payload = json.dumps(instance_to_json(asm_instance(2)))
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code, doc, _ = run(capsys, "check", "-")
        assert code == EXIT_OK and doc["status"] == "feasible"

    def test_oracle_flag_agrees(self, capsys, asm2_file):
        code, doc, _ = run(capsys, "solve", asm2_file, "--oracle")
        assert code == EXIT_OK
        assert doc["oracle"] == {"count": 2, "agrees": True}

    @pytest.mark.parametrize(
        "found", [[], [IntMatrix.zeros(2, 2)]], ids=["no-matrix", "other-matrix"]
    )
    def test_oracle_disagreement_exits_1(self, capsys, asm2_file, monkeypatch, found):
        monkeypatch.setattr(oracle, "enumerate_pbms", lambda inst: found)
        code, doc, err = run(capsys, "solve", asm2_file, "--oracle")
        assert code == EXIT_ERROR
        assert doc["status"] == "feasible"
        assert doc["oracle"] == {"count": len(found), "agrees": False}
        assert err == "oracle disagrees with solver\n"

    @pytest.mark.parametrize(
        "pins, want_code, count",
        [
            ("[[2,2,0]]", EXIT_OK, 4),
            ("[[2,2,-1]]", EXIT_OK, 1),
            ("[[1,1,1],[1,2,1]]", EXIT_INFEASIBLE, 0),
        ],
        ids=["four-completions", "one-completion", "no-completion"],
    )
    def test_oracle_counts_completions_of_pins(self, capsys, tmp_path, pins, want_code, count):
        path = write_json(tmp_path / "asm3.json", instance_to_json(asm_instance(3)))
        code, doc, _ = run(capsys, "solve", path, "--prescribe", pins, "--oracle")
        assert code == want_code
        assert doc["oracle"] == {"count": count, "agrees": True}

    def test_dump_dot(self, capsys, tmp_path, asm2_file):
        dot = tmp_path / "net.dot"
        code, _, _ = run(capsys, "check", asm2_file, "--dump-dot", str(dot))
        assert code == EXIT_OK
        assert dot.read_text().startswith("digraph")

    def test_round_trip_feasible_matrix(self, capsys, tmp_path, asm2_file):
        # a solved matrix, pinned back in as f = g = matrix, stays feasible
        code, doc, _ = run(capsys, "solve", asm2_file)
        mat = doc["matrix"]
        pinned = instance_to_json(asm_instance(2))
        pinned["f"] = mat
        pinned["g"] = mat
        pfile = write_json(tmp_path / "pinned.json", pinned)
        code, doc, _ = run(capsys, "check", pfile)
        assert code == EXIT_OK and doc["status"] == "feasible"


class TestSum:
    def test_max_and_min(self, capsys, tmp_path):
        f = write_json(tmp_path / "asm3.json", instance_to_json(asm_instance(3)))
        for flag in ("--max", "--min"):
            code, doc, _ = run(capsys, "sum", f, flag)
            assert code == EXIT_OK
            assert doc["value"] == 3

    def test_direction_required(self, capsys, asm2_file):
        with pytest.raises(SystemExit) as exc:
            main(["sum", asm2_file])
        assert exc.value.code == EXIT_ERROR
        capsys.readouterr()

    def test_unbounded_exit(self, capsys, tmp_path):
        doc = {
            "m": 1,
            "n": 1,
            "phi1": [[0]],
            "gamma1": [["+inf"]],
            "phi2": [[0]],
            "gamma2": [["+inf"]],
        }
        f = write_json(tmp_path / "open.json", doc)
        code, out, _ = run(capsys, "sum", f, "--max")
        assert code == EXIT_UNBOUNDED
        assert out["status"] == "unbounded"

    def test_oracle_flag(self, capsys, tmp_path):
        f = write_json(tmp_path / "pasm.json", instance_to_json(pasm_instance(2, 2)))
        code, doc, _ = run(capsys, "sum", f, "--min", "--oracle")
        assert code == EXIT_OK
        assert doc["value"] == 0
        assert doc["oracle"]["agrees"] and doc["oracle"]["min"] == 0

    def test_oracle_reaches_nine_cells(self, capsys, tmp_path):
        f = write_json(tmp_path / "asm3.json", instance_to_json(asm_instance(3)))
        code, doc, _ = run(capsys, "sum", f, "--max", "--oracle")
        assert code == EXIT_OK
        assert doc["value"] == 3
        assert doc["oracle"]["agrees"] is True


class TestHugeBounds:
    """Bounds past CPython's 4,300-digit limit on int/str conversion."""

    HUGE = "1" + "0" * 5000  # 10**5000, spelled out: str() of it would hit the limit here

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before CPython 3.10.7"
    )
    def test_solve_and_sum_print_exact_values(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        cell = "[[" + self.HUGE + "]]"
        path.write_text(
            '{"m": 1, "n": 1, '
            + ", ".join(f'"{key}": {cell}' for key in ("phi1", "gamma1", "phi2", "gamma2"))
            + "}"
        )
        limit = sys.get_int_max_str_digits()
        assert main(["solve", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        head = '{\n  "status": "feasible",\n  "matrix": [\n    [\n      '
        assert out.startswith(head + self.HUGE + "\n    ]\n  ],")
        assert main(["sum", str(path), "--max"]) == EXIT_OK
        out = capsys.readouterr().out
        assert '\n  "value": ' + self.HUGE + ",\n" in out
        assert sys.get_int_max_str_digits() == limit

    def test_interpreter_without_a_digit_limit(self, capsys, monkeypatch, asm2_file):
        # as on CPython before 3.10.7, where sys has neither function
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        code, doc, _ = run(capsys, "solve", asm2_file)
        assert code == EXIT_OK and doc["status"] == "feasible"


class TestCost:
    def test_min_with_costs(self, capsys, tmp_path, asm2_file):
        cfile = write_json(tmp_path / "costs.json", [[-1, 0], [0, -1]])
        code, doc, _ = run(capsys, "cost", asm2_file, "--costs", cfile)
        assert code == EXIT_OK
        assert doc["value"] == -2
        assert doc["matrix"] == [[1, 0], [0, 1]]

    def test_max_direction(self, capsys, tmp_path, asm2_file):
        cfile = write_json(tmp_path / "costs.json", [[-1, 0], [0, -1]])
        code, doc, _ = run(capsys, "cost", asm2_file, "--costs", cfile, "--max")
        assert code == EXIT_OK and doc["value"] == 0

    def test_oracle_flag(self, capsys, tmp_path, asm2_file):
        cfile = write_json(tmp_path / "costs.json", [[3, -2], [1, 0]])
        code, doc, _ = run(capsys, "cost", asm2_file, "--costs", cfile, "--oracle")
        assert code == EXIT_OK
        assert doc["oracle"]["agrees"]

    def test_costs_required(self, capsys, asm2_file):
        with pytest.raises(SystemExit) as exc:
            main(["cost", asm2_file])
        assert exc.value.code == EXIT_ERROR
        capsys.readouterr()


class TestDecompose:
    def test_splits_k_regular(self, capsys, tmp_path):
        from pbm.asmkit import k_regular_instance

        ifile = write_json(tmp_path / "kreg.json", instance_to_json(k_regular_instance(2, 2)))
        mfile = write_json(tmp_path / "mat.json", [[1, 1], [1, 1]])
        code, doc, _ = run(capsys, "decompose", ifile, "--matrix", mfile, "-k", "2")
        assert code == EXIT_OK
        assert sum(p["multiplicity"] for p in doc["parts"]) == 2
        total = [[0, 0], [0, 0]]
        for part in doc["parts"]:
            for i in range(2):
                for j in range(2):
                    total[i][j] += part["matrix"][i][j] * part["multiplicity"]
        assert total == [[1, 1], [1, 1]]

    def test_bad_matrix_exit(self, capsys, tmp_path):
        from pbm.asmkit import k_regular_instance

        ifile = write_json(tmp_path / "kreg.json", instance_to_json(k_regular_instance(2, 2)))
        mfile = write_json(tmp_path / "mat.json", [[9, 9], [9, 9]])
        code, doc, err = run(capsys, "decompose", ifile, "--matrix", mfile, "-k", "2")
        assert code == EXIT_ERROR
        assert "error" in err


class TestAsm:
    def test_plain_order(self, capsys):
        code, doc, _ = run(capsys, "asm", "3", "--oracle")
        assert code == EXIT_OK
        assert doc["oracle"] == {"count": 7, "agrees": True}

    def test_compatible_inline(self, capsys):
        labels = json.dumps([["-1", "F"], ["F", "F"]])
        code, doc, _ = run(capsys, "asm", "--compatible", labels)
        assert code == EXIT_INFEASIBLE
        assert doc["family"]["size"] == 2 and doc["family"]["required"] == 3

    def test_compatible_all_zero_names_a_segment_family(self, capsys):
        # no 2x2 ASM has four zeros; the answer's family comes from maximal_segments
        labels = json.dumps([["0", "0"], ["0", "0"]])
        code, doc, _ = run(capsys, "asm", "--compatible", labels)
        assert code == EXIT_INFEASIBLE
        assert doc["family"]["size"] == 1 and doc["family"]["required"] == 2
        assert doc["family"]["segments"] == [
            {"orientation": "vertical", "line": 2, "start": 1, "end": 2}
        ]
        # the printed keys are the records' fields, in the order docs/schema.md gives
        assert list(doc["family"]) == [
            "segments", "size", "uncovered_minus_ones", "twice_covered_plus_ones", "required"
        ]
        assert list(doc["family"]["segments"][0]) == ["orientation", "line", "start", "end"]

    def test_compatible_oracle(self, capsys, tmp_path):
        lfile = write_json(tmp_path / "labels.json", [["F", "F"], ["F", "F"]])
        code, doc, _ = run(capsys, "asm", "--compatible", f"@{lfile}", "--oracle")
        assert code == EXIT_OK
        assert doc["oracle"] == {"count": 2, "agrees": True}

    def test_compatible_infeasible_oracle(self, capsys):
        labels = json.dumps([["+1", "+1"], ["F", "F"]])
        code, doc, err = run(capsys, "asm", "--compatible", labels, "--oracle")
        assert code == EXIT_INFEASIBLE
        assert list(doc) == ["status", "n", "certificate", "family", "oracle"]
        assert doc["oracle"] == {"count": 0, "agrees": True}
        assert err == "infeasible: 3 segments found, 4 required\n"

    @pytest.mark.parametrize(
        "argv", [["7"], ["--compatible", json.dumps([["F"] * 7] * 7)]], ids=["order", "compatible"]
    )
    def test_oracle_size_limit_rejected_before_solve(self, capsys, monkeypatch, argv):
        def fail(*args):
            pytest.fail("solved or enumerated anyway")

        monkeypatch.setattr(oracle, "enumerate_asms", fail)
        monkeypatch.setattr("pbm.cli.solve", fail)
        monkeypatch.setattr("pbm.asmkit.compatible_asm", fail)
        code = main(["asm", *argv, "--oracle"])
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR and out == ""
        assert err == "error: --oracle supports n at most 6 here\n"

    def test_oracle_reaches_order_six(self, capsys, monkeypatch):
        orders = []
        monkeypatch.setattr(oracle, "enumerate_asms", lambda n: orders.append(n) or [])
        code, doc, _ = run(capsys, "asm", "6", "--oracle")
        assert orders == [6] and doc["status"] == "feasible"
        assert code == EXIT_ERROR and doc["oracle"] == {"count": 0, "agrees": False}

    def test_no_arguments_is_an_error(self, capsys):
        code = main(["asm"])
        _, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "error" in err


class TestSubordinate:
    def test_feasible(self, capsys, tmp_path):
        mfile = write_json(tmp_path / "x.json", [[1, 0], [0, 1]])
        code, doc, _ = run(capsys, "subordinate", mfile, "--oracle")
        assert code == EXIT_OK
        assert doc["matrix"] == [[1, 0], [0, 1]]

    def test_maximize(self, capsys, tmp_path):
        mfile = write_json(tmp_path / "x.json", [[1, 1], [1, 1]])
        code, doc, _ = run(capsys, "subordinate", mfile, "--maximize", "--oracle")
        assert code == EXIT_OK
        assert doc["plus_ones_kept"] == 2
        assert doc["oracle"]["best"] == 2

    def test_infeasible_family(self, capsys, tmp_path):
        mfile = write_json(tmp_path / "x.json", [[0, 0], [1, 1]])
        code, doc, _ = run(capsys, "subordinate", mfile)
        assert code == EXIT_INFEASIBLE
        assert doc["family"]["size"] == 1 and doc["family"]["required"] == 2


    def test_maximize_infeasible(self, capsys, tmp_path):
        mfile = write_json(tmp_path / "x.json", [[0, 0], [0, 1]])
        code, doc, _ = run(capsys, "subordinate", mfile, "--maximize", "--oracle")
        assert code == EXIT_INFEASIBLE
        assert list(doc) == ["status", "certificate", "family", "oracle"]
        assert doc["oracle"] == {"count": 0, "agrees": True}


class TestWasm:
    def test_feasible_pattern(self, capsys, tmp_path):
        pfile = write_json(tmp_path / "pats.json", {"rows": ["++"], "cols": ["++"]})
        code, doc, _ = run(capsys, "wasm", pfile, "--oracle")
        assert code == EXIT_OK
        assert doc["matrix"] == [[1]]
        assert doc["oracle"]["agrees"]

    def test_solution_passes_wing_check(self, capsys, tmp_path):
        pfile = write_json(
            tmp_path / "pats.json", {"rows": ["++", "--"], "cols": ["+-", "-+"]}
        )
        code, doc, _ = run(capsys, "wasm", pfile, "--oracle")
        if code == EXIT_OK:
            from pbm.core import IntMatrix

            assert oracle.is_wasm(IntMatrix.from_rows(doc["matrix"]), ["++", "--"], ["+-", "-+"])
        else:
            assert code == EXIT_INFEASIBLE


    def test_infeasible_pattern(self, capsys, tmp_path):
        pfile = write_json(tmp_path / "pats.json", {"rows": ["++"], "cols": ["--"]})
        code, doc, _ = run(capsys, "wasm", pfile, "--oracle")
        assert code == EXIT_INFEASIBLE
        assert list(doc) == ["status", "certificate", "oracle"]
        assert doc["oracle"] == {"agrees": True}

    def test_oracle_size_limit_rejected_before_solve(self, capsys, tmp_path, monkeypatch):
        pfile = write_json(tmp_path / "pats.json", {"rows": ["++"] * 4, "cols": ["++"] * 4})
        monkeypatch.setattr("pbm.cli.solve", lambda inst: pytest.fail("solved anyway"))
        code = main(["wasm", pfile, "--oracle"])
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR and out == ""
        assert err == "error: --oracle supports at most 12 cells here\n"


class TestDocumentKeys:
    """The top-level keys of each feasible document, as docs/schema.md shows them."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["check", "{asm2}"], ["status", "diagnostics"]),
            (["solve", "{asm2}"], ["status", "matrix", "diagnostics"]),
            (["asm", "2"], ["status", "n", "matrix"]),
            (["subordinate", "{x}"], ["status", "matrix"]),
            (["subordinate", "{x}", "--maximize"], ["status", "matrix", "plus_ones_kept"]),
            (["wasm", "{pats}"], ["status", "matrix"]),
        ],
        ids=["check", "solve", "asm", "subordinate", "subordinate-maximize", "wasm"],
    )
    def test_keys(self, capsys, tmp_path, asm2_file, argv, keys):
        files = {
            "asm2": asm2_file,
            "x": write_json(tmp_path / "x.json", [[1, 0], [0, 1]]),
            "pats": write_json(tmp_path / "pats.json", {"rows": ["++"], "cols": ["++"]}),
        }
        code, doc, _ = run(capsys, *(arg.format(**files) for arg in argv))
        assert code == EXIT_OK and list(doc) == keys
        if "diagnostics" in doc:
            assert list(doc["diagnostics"]) == ["arcs", "nodes", "pushes", "relabels", "wall_ms"]


class TestEval:
    def test_single_subset(self, capsys, tmp_path):
        f = write_json(tmp_path / "asm3.json", instance_to_json(asm_instance(3)))
        code, doc, _ = run(capsys, "eval", f, "--subset", "[[1,1],[1,2],[1,3]]", "--oracle")
        assert code == EXIT_OK
        assert list(doc) == ["p1", "b1", "p2", "b2", "oracle", "strict", "common_sum"]
        assert doc["p1"] == 1 and doc["b1"] == 1
        assert doc["strict"] and doc["common_sum"] == 3
        assert doc["oracle"]["agrees"]

    def test_pair_evaluates_condition(self, capsys, bad1x1_file):
        code, doc, _ = run(
            capsys, "eval", bad1x1_file, "--subset", "[[1,1]]", "--subset2", "[[1,1]]"
        )
        assert code == EXIT_OK
        cond = doc["condition"]
        assert set(cond) == {"gen1a", "gen1b", "gen1alfa", "gen1beta"}
        assert cond["gen1a"] == {"lhs": 1, "rhs": 0, "holds": False}
        assert doc["all_hold"] is False


class TestOracleCommand:
    def test_census(self, capsys, tmp_path):
        f = write_json(tmp_path / "asm3.json", instance_to_json(asm_instance(3)))
        code, doc, _ = run(capsys, "oracle", f)
        assert code == EXIT_OK
        assert doc["count"] == 7 and len(doc["matrices"]) == 7

    def test_budget_flag(self, capsys, tmp_path):
        f = write_json(tmp_path / "asm4.json", instance_to_json(asm_instance(4)))
        code = main(["oracle", f, "--max-cells", "9"])
        _, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert "error" in err


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = main(["check", "/nonexistent/instance.json"])
        _, err = capsys.readouterr()
        assert code == EXIT_ERROR and "error" in err

    def test_malformed_json(self, capsys, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        code = main(["check", str(f)])
        _, err = capsys.readouterr()
        assert code == EXIT_ERROR

    def test_invalid_instance(self, capsys, tmp_path):
        f = write_json(
            tmp_path / "inverted.json",
            {"m": 1, "n": 1, "phi1": [[2]], "gamma1": [[1]], "phi2": [[0]], "gamma2": [[0]]},
        )
        code = main(["check", str(f)])
        _, err = capsys.readouterr()
        assert code == EXIT_ERROR and "error" in err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "BINARY"], ["solve", "ASM2", "--prescribe", "@BINARY"]],
        ids=["instance", "prescribe"],
    )
    def test_non_utf8_file_rejected(self, capsys, tmp_path, asm2_file, argv):
        # JSON text is UTF-8; the start of an ELF binary is not
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xb0")
        args = [a.replace("BINARY", str(binary)).replace("ASM2", asm2_file) for a in argv]
        code = main(args)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR and out == ""
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xb0 in position 8: invalid start byte\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--prescribe", "[[1,1]]"],
            ["solve", "--prescribe", '{"a":1}'],
            ["solve", "--prescribe", "[[1,1,1.5]]"],
            ["solve", "--prescribe", "[[1.0,1,1]]"],
            ["solve", "--prescribe", "[[1,1,true]]"],
            ["eval", "--subset", "[[1.7,1]]"],
            ["eval", "--subset", '[["a",1]]'],
        ],
        ids=["pin-pair", "pin-object", "pin-float-value", "pin-float-row", "pin-bool",
             "cell-float", "cell-string"],
    )
    def test_non_integer_json_rejected(self, capsys, asm2_file, argv):
        code = main([argv[0], asm2_file, *argv[1:]])
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", {"m": 1, "n": 2, "phi1": [1, 2], "gamma1": [[1, 1]],
                       "phi2": [[0, 0]], "gamma2": [[1, 1]]}],
            ["cost", "ASM2", "--costs", [1, 2]],
            ["decompose", "ASM2", "--matrix", [1, 2], "-k", "2"],
            ["subordinate", [1, 2]],
            ["wasm", [1, 2]],
            ["wasm", {"rows": 5, "cols": ["++"]}],
            ["wasm", {"rows": [["+"]], "cols": ["++"]}],
            ["asm", "--compatible", "5"],
            ["asm", "--compatible", "[[[1]]]"],
        ],
        ids=["bound-row-not-list", "costs-row-not-list", "matrix-row-not-list",
             "subordinate-row-not-list", "patterns-not-object", "patterns-rows-not-list",
             "pattern-not-string", "labels-not-grid", "label-not-string"],
    )
    def test_malformed_document_rejected(self, capsys, tmp_path, asm2_file, argv):
        args = []
        for k, arg in enumerate(argv):
            if arg == "ASM2":
                arg = asm2_file
            elif not isinstance(arg, str):
                arg = write_json(tmp_path / f"doc{k}.json", arg)
            args.append(arg)
        code = main(args)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"phi2": [[0, 0], [0, "oops"]]}, "phi2 (2,2): bad extended integer 'oops'"),
            ({"gamma1": [[1, 1.5], [1, 1]]},
             "gamma1 (1,2): expected integer or infinity string, got 1.5"),
            ({"f": [[-1, -1], [True, -1]]},
             "f (2,1): expected integer or infinity string, got True"),
            ({"phi2": [[0, 0], [0]]}, "phi2 row 2 has 1 entries, expected 2"),
            ({"g": [[1], [1, 1]]}, "g row 2 has 2 entries, expected 1"),
            ({"gamma2": [[]]}, "gamma2 must have at least one row and one column"),
            ({"alpha": "minus infinity"}, "alpha: bad extended integer 'minus infinity'"),
            ({"beta": 4.0}, "beta: expected integer or infinity string, got 4.0"),
            # a present null is no table; only an absent block defaults to unbounded
            ({"phi1": None}, "phi1 must be a list of rows, each a list"),
            ({"gamma1": None}, "gamma1 must be a list of rows, each a list"),
            ({"f": None}, "f must be a list of rows, each a list"),
            ({"g": None}, "g must be a list of rows, each a list"),
            ({"m": 1.0}, "m and n must be integers"),
            ({"m": True}, "m and n must be integers"),
            # the size is checked before the shapes of the tables
            ({"m": 0}, "need m, n >= 1, got 0x2"),
            ({"m": 3}, "phi1 is 2x2, instance is 3x2"),
        ],
        ids=["cell-string", "cell-float", "cell-bool", "ragged-row", "ragged-first-row",
             "empty-table", "alpha-string", "beta-float", "phi1-null", "gamma1-null",
             "f-null", "g-null", "m-float", "m-bool", "m-zero", "table-shape"],
    )
    def test_parse_error_names_table_and_cell(self, capsys, tmp_path, changes, message):
        doc = {
            "m": 2, "n": 2,
            "phi1": [[0, 0], [0, 0]], "gamma1": [[1, 1], [1, 1]],
            "phi2": [[0, 0], [0, 0]], "gamma2": [[1, 1], [1, 1]],
            "f": [[-1, -1], [-1, -1]], "g": [[1, 1], [1, 1]],
        }
        path = write_json(tmp_path / "doc.json", {**doc, **changes})
        code, out, err = run(capsys, "solve", path)
        assert code == EXIT_ERROR and out is None
        assert err == f"error: {message}\n"

    def test_size_checked_against_a_table_before_defaults(self, capsys, tmp_path):
        # the default f and g take the instance's size only once a table read from the file has it
        doc = {"m": 10**20, "n": 1, "phi1": [[0]], "gamma1": [[1]], "phi2": [[0]], "gamma2": [[1]]}
        code, out, err = run(capsys, "solve", write_json(tmp_path / "huge.json", doc))
        assert code == EXIT_ERROR and out is None
        assert err == f"error: phi1 is 1x1, instance is {10**20}x1\n"

    def test_missing_pattern_key_named(self, capsys, tmp_path):
        # the one KeyError that reaches main
        path = write_json(tmp_path / "wings.json", {"cols": ["++"]})
        code, out, err = run(capsys, "wasm", path)
        assert code == EXIT_ERROR and out is None
        assert err == "error: missing key 'rows'\n"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_ERROR
        capsys.readouterr()


big_ints = st.integers(-(10**40), 10**40)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    big_ints,
    st.floats(),
    st.text(),  # non-ASCII and control characters included
    st.lists(st.one_of(big_ints, st.booleans())),  # int lists, with and without bools
    st.lists(st.lists(st.integers(-3, 3), max_size=3)),  # ragged or empty rows
    st.integers(0, 3).flatmap(  # equal-length int tables
        lambda w: st.lists(st.lists(big_ints, min_size=w, max_size=w), max_size=4)
    ),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.tuples(inner, inner),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.one_of(st.integers(-3, 3), st.booleans()), inner, max_size=2),
    ),
    max_leaves=12,
)


class TestJsonText:
    @given(json_values)
    def test_equals_indented_json_dumps(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [[], {}, [[]], [[], []], [[1, 2], [3]], [[1, True]], [(1, 2), [3, 4]], {"a": [1.5]}],
    )
    def test_edge_shapes(self, doc):
        assert cli._json_text(doc) == json.dumps(doc, indent=2)

    def test_printed_document_is_indented_json(self, capsys, tmp_path, bad1x1_file):
        code = main(["solve", bad1x1_file])
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestRepeatedCalls:
    def outcome(self, capsys, argv):
        """Exit code, document without its wall time, and stderr of one call."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        doc = json.loads(captured.out) if captured.out else None
        if doc is not None:
            doc.get("diagnostics", {}).pop("wall_ms", None)
        return code, doc, captured.err

    def test_one_parser_serves_every_call(self, capsys, tmp_path, asm2_file):
        costs = write_json(tmp_path / "costs.json", [[1, -1], [-1, 1]])
        calls = [
            ("sum", asm2_file),  # usage error: no direction
            ("sum", asm2_file, "--max"),
            ("sum", asm2_file, "--min"),
            ("cost", asm2_file, "--costs", costs, "--max"),
            ("cost", asm2_file, "--costs", costs),  # --min by default
            ("frobnicate",),
            ("check", asm2_file),
        ]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        repeated = [self.outcome(capsys, argv) for argv in calls]
        assert repeated == fresh
        assert cli._build_parser() is cli._build_parser()
        assert [code for code, _, _ in fresh] == [EXIT_ERROR, 0, 0, 0, 0, EXIT_ERROR, 0]
        assert fresh[3][1]["direction"] == "max" and fresh[4][1]["direction"] == "min"


SRC = str(Path(__file__).resolve().parent.parent / "src")

# A fresh interpreter runs one command and prints its exit code, its stdout
# and the pbm modules it loaded.
COLD_START = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import pbm.cli
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    rc = pbm.cli.main(sys.argv[2:])
print(json.dumps({"rc": rc, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


class TestColdStart:
    LAZY = {"pbm.asmkit", "pbm.oracle", "pbm.segments"}

    def cold(self, *argv):
        child = subprocess.run(
            [sys.executable, "-c", COLD_START, SRC, *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout)
        return report["rc"], json.loads(report["out"]), self.LAZY & set(report["modules"])

    def test_solve_loads_no_toolkit(self, tmp_path):
        path = write_json(tmp_path / "asm3.json", instance_to_json(asm_instance(3)))
        code, doc, loaded = self.cold("solve", path)
        assert code == EXIT_OK
        assert doc["matrix"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
        assert loaded == set()

    def test_asm_loads_the_toolkit_only(self):
        code, doc, loaded = self.cold("asm", "3")
        assert code == EXIT_OK and doc["n"] == 3
        assert loaded == {"pbm.asmkit", "pbm.segments"}

    def test_oracle_flag_loads_the_oracle(self):
        code, doc, loaded = self.cold("asm", "3", "--oracle")
        assert code == EXIT_OK and doc["oracle"] == {"count": 7, "agrees": True}
        assert "pbm.oracle" in loaded
