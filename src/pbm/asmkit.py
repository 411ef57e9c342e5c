"""Structured matrix families expressed as prefix-bound instances.

Every family is a table of line windows plus entry bounds: each row and
each column has one window for its prefix sums and one for its line sum,
and one builder, ``_line_instance``, turns such a table into the
instance.  Each constructor returns an instance whose feasible matrices
are exactly the members of a classical family:

* asm(n): alternating sign matrices (prefix sums in [0, 1] both ways,
  line sums 1, entries in {0, +-1});
* k_regular(n, k): prefix sums in [0, k], line sums k, entries {0, +-1};
* higher_spin(n, r): prefix sums in [0, r], line sums r, any integers;
* pasm(m, n): all prefix sums in {0, 1}, entries {0, +-1};
* aval_sign(m, n): vertical prefix sums in {0, 1}, horizontal prefix sums
  nonnegative, entries {0, +-1};
* brualdi_dahl(r, s): entries {0, +-1}, row i sums to r_i with prefix sums
  in [0, r_i], columns likewise with s;
* wasm(rows, cols): entries {0, +-1}, each line's windows set by its wing
  pattern;
* sum_majorized(B): both prefix-sum arrays bounded below by 0 and above
  entrywise by B, with row and column sums pinned to B's last column/row.
  Its upper windows change along a line, so its tables come from B itself.

``compatible_asm`` decides whether an ASM can honor a six-way cell
partition (forced 0 / +1 / -1, at most 0 / at least 0, free).  When no ASM
exists, the instance certificate converts into a small combinatorial
witness: a family of fewer than n + (forced -1 cells it misses) +
(forced +1 cells it covers twice) separated segments whose uncovered cells
all allow 0-or-negative values and whose doubly covered cells all allow
0-or-positive values.  No such family can exist when a compatible ASM does,
so the family is a standalone proof of infeasibility.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import (
    NEG_INF,
    POS_INF,
    ExtInt,
    ExtMatrix,
    IntMatrix,
    PbmInstance,
    SubsetMask,
    fin,
    validate_instance,
)
from .errors import BadEntries, BadParams, DimensionMismatch, InternalError
from .feasibility import Certificate, Result, optimize_cost, solve
from .segments import HORIZONTAL, VERTICAL, Segment, maximal_segments

__all__ = [
    "SPartition",
    "SegmentFamilyCertificate",
    "asm_instance",
    "k_regular_instance",
    "higher_spin_instance",
    "pasm_instance",
    "aval_sign_instance",
    "brualdi_dahl_instance",
    "sum_majorized_instance",
    "wasm_instance",
    "compatible_asm",
    "subordinate_asm",
    "max_plus_ones_subordinate",
    "WING_PATTERNS",
]


def _line_instance(
    rows: Sequence[tuple], cols: Sequence[tuple], entry: tuple = (NEG_INF, POS_INF)
) -> PbmInstance:
    """The instance that bounds each line's prefix sums and every entry.

    Each row and column is ``(lo, hi, last_lo, last_hi)``: every prefix sum
    of the line but the last lies in [lo, hi], and the last one, the line
    sum, in [last_lo, last_hi].  Every entry lies in ``entry``.  Bounds are
    ints or infinite ``ExtInt``s.
    """
    m, n = len(rows), len(cols)
    phi1, gamma1 = ([[r[k]] * (n - 1) + [r[k + 2]] for r in rows] for k in (0, 1))
    phi2, gamma2 = (
        [[c[k] for c in cols]] * (m - 1) + [[c[k + 2] for c in cols]] for k in (0, 1)
    )
    lo, hi = entry
    return PbmInstance.create(m, n, phi1, gamma1, phi2, gamma2, [[lo] * n] * m, [[hi] * n] * m)


def _check_dim(value: int, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise BadParams(f"{name} must be a positive integer, got {value!r}")
    return value


def asm_instance(n: int) -> PbmInstance:
    """Feasible matrices are exactly the n x n alternating sign matrices."""
    return k_regular_instance(n, 1)


def k_regular_instance(n: int, k: int) -> PbmInstance:
    """Entries {0, +-1}, prefix sums in [0, k], all line sums equal to k."""
    _check_dim(n, "n")
    _check_dim(k, "k")
    return brualdi_dahl_instance([k] * n, [k] * n)


def higher_spin_instance(n: int, r: int) -> PbmInstance:
    """Integer entries, prefix sums in [0, r], all line sums equal to r."""
    _check_dim(n, "n")
    if not isinstance(r, int) or isinstance(r, bool) or r < 0:
        raise BadParams(f"r must be a nonnegative integer, got {r!r}")
    return _line_instance([(0, r, r, r)] * n, [(0, r, r, r)] * n)


def pasm_instance(m: int, n: int) -> PbmInstance:
    """Entries {0, +-1} with every prefix sum, both ways, in {0, 1}."""
    _check_dim(m, "m")
    _check_dim(n, "n")
    return _line_instance([(0, 1, 0, 1)] * m, [(0, 1, 0, 1)] * n, (-1, 1))


def aval_sign_instance(m: int, n: int) -> PbmInstance:
    """Entries {0, +-1}; vertical prefix sums in {0, 1}, horizontal ones >= 0."""
    _check_dim(m, "m")
    _check_dim(n, "n")
    return _line_instance([(0, POS_INF, 0, POS_INF)] * m, [(0, 1, 0, 1)] * n, (-1, 1))


def brualdi_dahl_instance(row_sums: Sequence[int], col_sums: Sequence[int]) -> PbmInstance:
    """Entries {0, +-1}; row i prefix sums in [0, r_i] ending at r_i, columns dual."""
    if not row_sums or not col_sums:
        raise BadParams("row_sums and col_sums must be nonempty")
    for name, seq in (("row_sums", row_sums), ("col_sums", col_sums)):
        for v in seq:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise BadParams(f"{name} entries must be nonnegative integers, got {v!r}")
    return _line_instance(
        [(0, r, r, r) for r in row_sums], [(0, s, s, s) for s in col_sums], (-1, 1)
    )


def sum_majorized_instance(b: IntMatrix) -> PbmInstance:
    """Integer entries whose prefix-sum arrays sit in [0, b] entrywise.

    Row sums are pinned to b's last column and column sums to b's last row.
    """
    for i, j, v in b.cells():
        if v < 0:
            raise BadParams(f"bounding matrix entry ({i},{j}) = {v} is negative")
    m, n = b.m, b.n
    return PbmInstance.create(
        m=m,
        n=n,
        phi1=[[0] * (n - 1) + [row[-1]] for row in b.rows],
        gamma1=b.rows,
        phi2=[[0] * n] * (m - 1) + [b.rows[-1]],
        gamma2=b.rows,
    )


# Per wing pattern: (interior phi, interior gamma, pinned final value).
WING_PATTERNS: Mapping[str, tuple[int, int, int]] = {
    "++": (0, 1, 1),
    "--": (-1, 0, -1),
    "+-": (0, 1, 0),
    "-+": (-1, 0, 0),
}


def wasm_instance(rows: Sequence[str], cols: Sequence[str]) -> PbmInstance:
    """Entries {0, +-1} whose nonzeros alternate per line with chosen wing signs.

    A pattern like "+-" asks the line's first nonzero to be +1 and its last
    to be -1; lines with pattern "+-" or "-+" may also be all zero.  Rows
    and columns each carry their own pattern.
    """
    if not rows or not cols:
        raise BadParams("need at least one row and one column pattern")
    for name, seq in (("row", rows), ("column", cols)):
        if not isinstance(seq, (list, tuple)):
            raise BadParams(f"{name} patterns must be a list of strings, got {seq!r}")
        for idx, p in enumerate(seq, start=1):
            if not isinstance(p, str) or p not in WING_PATTERNS:
                raise BadParams(
                    f"{name} pattern {idx} is {p!r}; expected one of {sorted(WING_PATTERNS)}"
                )

    def windows(p: str) -> tuple[int, int, int, int]:
        lo, hi, last = WING_PATTERNS[p]
        return lo, hi, last, last

    return _line_instance(list(map(windows, rows)), list(map(windows, cols)), (-1, 1))


# The entry values each partition label allows.
_ALLOWED: Mapping[str, tuple[int, ...]] = {
    "0": (0,),
    "+1": (1,),
    "-1": (-1,),
    "+": (0, 1),
    "-": (-1, 0),
    "F": (-1, 0, 1),
}


@dataclass(frozen=True, slots=True)
class SPartition:
    """Six-way partition of an n x n grid prescribing ASM entry behavior.

    ``labels[i - 1][j - 1]`` is cell (i, j)'s code: 0, +1 and -1 force the
    entry, + allows {0, +1}, - allows {0, -1}, F allows anything.
    """

    labels: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if n < 1 or any(type(row) is not tuple or len(row) != n for row in self.labels):
            raise BadParams("label grid must be square and nonempty")
        for i, row in enumerate(self.labels, start=1):
            for j, lab in enumerate(row, start=1):
                if not isinstance(lab, str) or lab not in _ALLOWED:
                    raise BadParams(
                        f"label ({i},{j}) is {lab!r}; expected one of {list(_ALLOWED)}"
                    )

    @property
    def n(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_labels(labels: Sequence[Sequence[str]]) -> "SPartition":
        """Build from an n x n grid of the codes 0, +1, -1, +, -, F."""
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in labels
        ):
            raise BadParams("label grid must be a list of rows, each a list of labels")
        return SPartition(tuple(map(tuple, labels)))

    def cells(self, *labels: str) -> SubsetMask:
        """The cells whose label is one of ``labels``."""
        return SubsetMask(
            self.n,
            self.n,
            frozenset(
                (i, j)
                for i, row in enumerate(self.labels, start=1)
                for j, lab in enumerate(row, start=1)
                if lab in labels
            ),
        )

    def allows(self, mat: IntMatrix) -> bool:
        """Whether every entry of ``mat`` takes a value its cell's label allows."""
        return all(v in _ALLOWED[self.labels[i - 1][j - 1]] for i, j, v in mat.cells())


# The entry bounds each partition label puts on its cell: its least and
# greatest allowed values, except that the lower bound is -inf (not -1)
# wherever a negative entry is allowed and the upper bound +inf wherever a
# positive one is; the prefix windows already cap entries at +-1, and the
# slack infinities are what make an infeasibility certificate collapse into
# a segment-family witness.
_ENTRY_BOUNDS: Mapping[str, tuple[ExtInt, ExtInt]] = {
    label: (
        NEG_INF if min(values) < 0 else fin(min(values)),
        POS_INF if max(values) > 0 else fin(max(values)),
    )
    for label, values in _ALLOWED.items()
}


def _partition_instance(part: SPartition) -> PbmInstance:
    """ASM prefix windows plus entry bounds encoding the partition."""
    n = part.n
    bounds = [[_ENTRY_BOUNDS[lab] for lab in row] for row in part.labels]
    f, g = (ExtMatrix.from_rows([[b[k] for b in row] for row in bounds]) for k in (0, 1))
    return validate_instance(dataclasses.replace(asm_instance(n), f=f, g=g))


@dataclass(frozen=True, slots=True)
class SegmentFamilyCertificate:
    """A too-small separated segment family proving no compatible ASM exists.

    The family has ``size`` segments (a multiset: a one-cell segment may
    appear once horizontally and once vertically), yet any compatible ASM
    would need at least ``required`` = n + uncovered_minus_ones +
    twice_covered_plus_ones of them.  The CLI prints the fields, and each
    ``Segment``'s, in this order as the keys of ``family`` (docs/schema.md).
    """

    segments: tuple[Segment, ...]
    size: int
    uncovered_minus_ones: int
    twice_covered_plus_ones: int
    required: int


def _family_from_certificate(part: SPartition, cert: Certificate) -> SegmentFamilyCertificate:
    """Convert a violated inequality into a segment-family witness.

    With nothing constraining the total sum only gen1a/gen1b can fail, and
    complementing one side of the violated pair yields subsets X', X'' whose
    horizontal plus vertical segments form the family: the violation
    rewrites exactly into size < required.
    """
    n = part.n
    if cert.violated == "gen1a":
        xp, xpp = cert.x1.complement(), cert.x2
    elif cert.violated == "gen1b":
        xp, xpp = cert.x1, cert.x2.complement()
    else:
        raise InternalError(f"unexpected violated inequality {cert.violated}")
    h_segs = maximal_segments(xp, HORIZONTAL)
    v_segs = maximal_segments(xpp, VERTICAL)
    uncovered = (xp | xpp).complement()
    twice = xp & xpp
    allowed_uncovered = part.cells("0", "-1", "-")
    allowed_twice = part.cells("0", "+1", "+")
    if len(uncovered - allowed_uncovered) != 0:
        raise InternalError("family leaves a cell uncovered that needs a positive entry")
    if len(twice - allowed_twice) != 0:
        raise InternalError("family doubly covers a cell that needs a negative entry")
    size = len(h_segs) + len(v_segs)
    miss = len(part.cells("-1") & uncovered)
    extra = len(part.cells("+1") & twice)
    required = n + miss + extra
    if size >= required:
        raise InternalError(f"family of {size} segments does not beat bound {required}")
    return SegmentFamilyCertificate(
        segments=tuple(h_segs + v_segs),
        size=size,
        uncovered_minus_ones=miss,
        twice_covered_plus_ones=extra,
        required=required,
    )


def _with_family(part: SPartition, result: Result) -> Result:
    """``result``, plus the segment-family reading of its certificate if it has one."""
    if result.certificate is None:
        return result
    return dataclasses.replace(result, family=_family_from_certificate(part, result.certificate))


def compatible_asm(part: SPartition) -> Result:
    """An ASM honoring the partition, or a segment-family impossibility proof.

    ``solve`` re-checks its matrix against the entry bounds that encode the
    labels, so a returned matrix honors every label.
    """
    return _with_family(part, solve(_partition_instance(part)))


def _sign_partition(x: IntMatrix) -> SPartition:
    if x.m != x.n:
        raise DimensionMismatch(f"matrix must be square, got {x.m}x{x.n}")
    for i, j, v in x.cells():
        if v not in (-1, 0, 1):
            raise BadEntries(f"entry ({i},{j}) = {v} not in {{-1, 0, 1}}")
    labels = [
        ["+" if v == 1 else "-" if v == -1 else "0" for v in row] for row in x.rows
    ]
    return SPartition.from_labels(labels)


def subordinate_asm(x: IntMatrix) -> Result:
    """An ASM obtained from x by zeroing some nonzeros, or a family witness.

    The sign labels allow each entry only 0 or x's value, and the solver
    re-checks its matrix against them.
    """
    return compatible_asm(_sign_partition(x))


def max_plus_ones_subordinate(x: IntMatrix) -> Result:
    """Among ASMs subordinate to x, keep as many of x's +1 entries as possible.

    The optimum ``value`` is the number of +1 entries kept.  A single exact
    optimization suffices: the prefix windows cap every entry, so no
    optimum can lean on the large-K stand-ins for the unbounded entry sides.
    """
    part = _sign_partition(x)
    plus = IntMatrix.from_rows([[int(v == 1) for v in row] for row in x.rows])
    res = optimize_cost(_partition_instance(part), plus, "max")
    if res.status == "unbounded":
        raise InternalError("subordinate optimum reported unbounded under capped windows")
    return _with_family(part, res)
