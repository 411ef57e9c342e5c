"""Exact solver for integer matrices with prefix-sum bounds.

The library decides whether an integer matrix exists whose horizontal and
vertical prefix sums, entries, and total sum all sit inside prescribed
intervals, and produces either such a matrix or a short certificate of
impossibility.  On top of that sit linear optimization, equitable
decomposition into k bounded parts, and toolkit constructors for the
classical alternating-sign-matrix families.
"""

from importlib import import_module as _import_module

from .core import (
    NEG_INF,
    POS_INF,
    ExtInt,
    ExtMatrix,
    IntMatrix,
    PbmInstance,
    SubsetMask,
    fin,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from .errors import (
    BadEntries,
    BadParams,
    BoundOrderViolation,
    BoundViolation,
    BudgetExceeded,
    DimensionMismatch,
    IllegalInfinity,
    InfeasibleInput,
    InfinityClash,
    InstanceFormatError,
    InternalError,
    NotKRegular,
    PbmError,
    PrescriptionOutOfEntryBounds,
)
from .strongpair import (
    ConditionEval,
    InequalityRecord,
    StrongPairEval,
    condition_values,
    elementary_pair,
    eval_strong_pair,
    mask_sum,
)
from .circulation import (
    Circulation,
    CutWitness,
    Network,
    Ray,
    build_network,
    circulation_from_matrix,
    cut_to_certificate,
    matrix_from_circulation,
    min_cost_circulation,
    network_to_dot,
)
from .feasibility import (
    Certificate,
    Result,
    check_condition,
    check_strict,
    extremal_total_sum,
    optimize_cost,
    pin_entries,
    solve,
)
from .decompose import Decomposition, decompose, decompose_k_regular_asm

# The ASM toolkit, the segment families and the enumeration oracle load on
# first use: a command that only solves never compiles them.  ``decompose``
# stays eager: the submodule ``pbm.decompose`` shares its name, and importing
# it would replace a lazily bound function.
_LAZY = {
    name: module
    for module, names in (
        ("segments", ("HORIZONTAL", "VERTICAL", "Segment", "maximal_segments")),
        ("asmkit", ("SPartition", "SegmentFamilyCertificate", "asm_instance",
                    "aval_sign_instance", "brualdi_dahl_instance", "compatible_asm",
                    "higher_spin_instance", "k_regular_instance", "max_plus_ones_subordinate",
                    "pasm_instance", "subordinate_asm", "sum_majorized_instance",
                    "wasm_instance")),
        ("oracle", ("EnumerationBudget", "enumerate_pbms", "matrix_satisfies")),
    )
    for name in (module, *names)
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


# every public name, the lazy ones included, so ``from pbm import *`` binds them all
__all__ = [*(name for name in globals() if not name.startswith("_")), *_LAZY]

__version__ = "0.1.0"
