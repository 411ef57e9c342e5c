"""The names the package exports, each checked in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Every public name of the package; ``from pbm import *`` binds them all, the
# lazily loaded ones included.
STAR_NAMES = {
    "BadEntries", "BadParams", "BoundOrderViolation", "BoundViolation", "BudgetExceeded",
    "Certificate", "Circulation", "ConditionEval", "CutWitness", "Decomposition",
    "DimensionMismatch", "EnumerationBudget", "ExtInt", "ExtMatrix", "HORIZONTAL",
    "IllegalInfinity", "InequalityRecord", "InfeasibleInput", "InfinityClash",
    "InstanceFormatError", "IntMatrix", "InternalError", "NEG_INF", "Network",
    "NotKRegular", "POS_INF", "PbmError", "PbmInstance", "PrescriptionOutOfEntryBounds",
    "Ray", "Result", "SPartition", "Segment", "SegmentFamilyCertificate",
    "StrongPairEval", "SubsetMask", "VERTICAL", "asm_instance", "asmkit",
    "aval_sign_instance", "brualdi_dahl_instance", "build_network", "check_condition",
    "check_strict", "circulation", "circulation_from_matrix", "compatible_asm",
    "condition_values", "core", "cut_to_certificate", "decompose", "decompose_k_regular_asm",
    "elementary_pair", "enumerate_pbms", "errors", "eval_strong_pair", "extremal_total_sum",
    "feasibility", "fin", "higher_spin_instance", "instance_from_json", "instance_to_json",
    "k_regular_instance", "mask_sum", "matrix_from_circulation", "matrix_satisfies",
    "max_plus_ones_subordinate", "maximal_segments", "min_cost_circulation", "network_to_dot",
    "optimize_cost", "oracle", "pasm_instance", "pin_entries", "segments", "solve",
    "strongpair", "subordinate_asm", "sum_majorized_instance",
    "validate_instance", "wasm_instance",
}


def fresh(code: str):
    """The JSON value a fresh interpreter prints after running ``code``."""
    child = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_decompose_stays_the_function_after_the_submodule_loads():
    kind = fresh(
        "import json, pbm.decompose\n"
        "from pbm import decompose\n"
        "import pbm\n"
        "print(json.dumps([type(decompose).__name__, pbm.decompose is decompose]))"
    )
    assert kind == ["function", True]


def test_every_exported_name_resolves():
    missing = fresh(
        "import json, pbm\n"
        "print(json.dumps([n for n in pbm.__all__ if getattr(pbm, n, None) is None]))"
    )
    assert missing == []


def test_star_import_binds_the_same_names():
    names = fresh(
        "import json\n"
        "names = {}\n"
        "exec('from pbm import *', names)\n"
        "print(json.dumps(sorted(set(names) - {'__builtins__'})))"
    )
    assert set(names) == STAR_NAMES


def test_unknown_name_raises_attribute_error():
    raised = fresh(
        "import json, pbm\n"
        "try:\n"
        "    pbm.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))"
    )
    assert raised == "module 'pbm' has no attribute 'no_such_name'"
