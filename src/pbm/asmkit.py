"""Structured matrix families expressed as prefix-bound instances.

Each constructor returns an instance whose feasible matrices are exactly
the members of a classical family:

* asm(n): alternating sign matrices (prefix sums in [0, 1] both ways,
  line sums 1, entries in {0, +-1});
* k_regular(n, k): prefix sums in [0, k], line sums k, entries {0, +-1};
* higher_spin(n, r): prefix sums in [0, r], line sums r, any integers;
* pasm(m, n): all prefix sums in {0, 1}, entries {0, +-1};
* aval_sign(m, n): vertical prefix sums in {0, 1}, horizontal prefix sums
  nonnegative, entries {0, +-1};
* brualdi_dahl(r, s): entries {0, +-1}, row i sums to r_i with prefix sums
  in [0, r_i], columns likewise with s;
* sum_majorized(B): both prefix-sum arrays bounded below by 0 and above
  entrywise by B, with row and column sums pinned to B's last column/row.

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

from dataclasses import dataclass
from typing import Mapping, Sequence

from .circulation import build_network
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
from .feasibility import Certificate, _optimize, solve
from .segments import HORIZONTAL, VERTICAL, Segment, maximal_segments

__all__ = [
    "SPartition",
    "SegmentFamilyCertificate",
    "CompatibleAsmResult",
    "SubordinateOptResult",
    "asm_instance",
    "k_regular_instance",
    "higher_spin_instance",
    "pasm_instance",
    "aval_sign_instance",
    "brualdi_dahl_instance",
    "sum_majorized_instance",
    "wasm_instance",
    "make_instance",
    "compatible_asm",
    "subordinate_asm",
    "max_plus_ones_subordinate",
    "WING_PATTERNS",
]


def _pinned_last(n_lines: int, length: int, interior: ExtInt, final) -> list[list[ExtInt]]:
    """Rows of a bound table: ``interior`` everywhere, per-line final value."""
    out = []
    for line in range(n_lines):
        fv = final[line] if isinstance(final, (list, tuple)) else final
        out.append([interior] * (length - 1) + [fv])
    return out


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
    zero, rr = fin(0), fin(r)
    return PbmInstance.create(
        m=n,
        n=n,
        phi1=_pinned_last(n, n, zero, rr),
        gamma1=[[rr] * n for _ in range(n)],
        phi2=[
            [zero if i < n else rr for _ in range(n)] for i in range(1, n + 1)
        ],
        gamma2=[[rr] * n for _ in range(n)],
    )


def pasm_instance(m: int, n: int) -> PbmInstance:
    """Entries {0, +-1} with every prefix sum, both ways, in {0, 1}."""
    _check_dim(m, "m")
    _check_dim(n, "n")
    return PbmInstance.create(
        m=m,
        n=n,
        phi1=[[fin(0)] * n for _ in range(m)],
        gamma1=[[fin(1)] * n for _ in range(m)],
        phi2=[[fin(0)] * n for _ in range(m)],
        gamma2=[[fin(1)] * n for _ in range(m)],
        f=[[fin(-1)] * n for _ in range(m)],
        g=[[fin(1)] * n for _ in range(m)],
    )


def aval_sign_instance(m: int, n: int) -> PbmInstance:
    """Entries {0, +-1}; vertical prefix sums in {0, 1}, horizontal ones >= 0."""
    _check_dim(m, "m")
    _check_dim(n, "n")
    return PbmInstance.create(
        m=m,
        n=n,
        phi1=[[fin(0)] * n for _ in range(m)],
        gamma1=[[POS_INF] * n for _ in range(m)],
        phi2=[[fin(0)] * n for _ in range(m)],
        gamma2=[[fin(1)] * n for _ in range(m)],
        f=[[fin(-1)] * n for _ in range(m)],
        g=[[fin(1)] * n for _ in range(m)],
    )


def brualdi_dahl_instance(row_sums: Sequence[int], col_sums: Sequence[int]) -> PbmInstance:
    """Entries {0, +-1}; row i prefix sums in [0, r_i] ending at r_i, columns dual."""
    if not row_sums or not col_sums:
        raise BadParams("row_sums and col_sums must be nonempty")
    for name, seq in (("row_sums", row_sums), ("col_sums", col_sums)):
        for v in seq:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise BadParams(f"{name} entries must be nonnegative integers, got {v!r}")
    m, n = len(row_sums), len(col_sums)
    return PbmInstance.create(
        m=m,
        n=n,
        phi1=_pinned_last(m, n, fin(0), [fin(r) for r in row_sums]),
        gamma1=[[fin(r)] * n for r in row_sums],
        phi2=[
            [fin(0) if i < m else fin(col_sums[j]) for j in range(n)]
            for i in range(1, m + 1)
        ],
        gamma2=[[fin(s) for s in col_sums] for _ in range(m)],
        f=[[fin(-1)] * n for _ in range(m)],
        g=[[fin(1)] * n for _ in range(m)],
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
        phi1=_pinned_last(m, n, fin(0), [fin(b.at(i, n)) for i in range(1, m + 1)]),
        gamma1=[[fin(b.at(i, j)) for j in range(1, n + 1)] for i in range(1, m + 1)],
        phi2=[
            [fin(0) if i < m else fin(b.at(m, j)) for j in range(1, n + 1)]
            for i in range(1, m + 1)
        ],
        gamma2=[[fin(b.at(i, j)) for j in range(1, n + 1)] for i in range(1, m + 1)],
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
    m, n = len(rows), len(cols)
    phi1 = [
        [fin(WING_PATTERNS[rows[i]][0])] * (n - 1) + [fin(WING_PATTERNS[rows[i]][2])]
        for i in range(m)
    ]
    gamma1 = [
        [fin(WING_PATTERNS[rows[i]][1])] * (n - 1) + [fin(WING_PATTERNS[rows[i]][2])]
        for i in range(m)
    ]
    phi2 = [
        [
            fin(WING_PATTERNS[cols[j]][0]) if i < m else fin(WING_PATTERNS[cols[j]][2])
            for j in range(n)
        ]
        for i in range(1, m + 1)
    ]
    gamma2 = [
        [
            fin(WING_PATTERNS[cols[j]][1]) if i < m else fin(WING_PATTERNS[cols[j]][2])
            for j in range(n)
        ]
        for i in range(1, m + 1)
    ]
    return PbmInstance.create(
        m=m,
        n=n,
        phi1=phi1,
        gamma1=gamma1,
        phi2=phi2,
        gamma2=gamma2,
        f=[[fin(-1)] * n for _ in range(m)],
        g=[[fin(1)] * n for _ in range(m)],
    )


def make_instance(kind: str, **params) -> PbmInstance:
    """Dispatch to one of the family constructors by name."""
    builders = {
        "asm": lambda: asm_instance(params.pop("n")),
        "k_regular": lambda: k_regular_instance(params.pop("n"), params.pop("k")),
        "higher_spin": lambda: higher_spin_instance(params.pop("n"), params.pop("r")),
        "pasm": lambda: pasm_instance(params.pop("m"), params.pop("n")),
        "aval_sign": lambda: aval_sign_instance(params.pop("m"), params.pop("n")),
        "brualdi_dahl": lambda: brualdi_dahl_instance(
            params.pop("row_sums"), params.pop("col_sums")
        ),
        "sum_majorized": lambda: sum_majorized_instance(
            params.pop("b")
            if isinstance(params.get("b"), IntMatrix)
            else IntMatrix.from_rows(params.pop("b"))
        ),
        "wasm": lambda: wasm_instance(params.pop("rows"), params.pop("cols")),
    }
    if kind not in builders:
        raise BadParams(f"unknown kind {kind!r}; expected one of {sorted(builders)}")
    try:
        inst = builders[kind]()
    except KeyError as exc:
        raise BadParams(f"kind {kind!r} is missing parameter {exc.args[0]!r}") from None
    if params:
        raise BadParams(f"kind {kind!r} got unexpected parameters {sorted(params)}")
    return inst


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

    zero / plus_one / minus_one force the entry; nonneg allows {0, +1},
    nonpos allows {0, -1}, free allows anything.
    """

    n: int
    zero: SubsetMask
    plus_one: SubsetMask
    minus_one: SubsetMask
    nonneg: SubsetMask
    nonpos: SubsetMask
    free: SubsetMask

    def __post_init__(self) -> None:
        masks = self.masks()
        union: set[tuple[int, int]] = set()
        count = 0
        for mask in masks.values():
            if (mask.m, mask.n) != (self.n, self.n):
                raise BadParams("partition masks must live on the n x n grid")
            union |= set(mask.cells)
            count += len(mask)
        if count != self.n * self.n or len(union) != self.n * self.n:
            raise BadParams("label classes must partition the grid")

    def masks(self) -> dict[str, SubsetMask]:
        return {
            "0": self.zero,
            "+1": self.plus_one,
            "-1": self.minus_one,
            "+": self.nonneg,
            "-": self.nonpos,
            "F": self.free,
        }

    @staticmethod
    def from_labels(labels: Sequence[Sequence[str]]) -> "SPartition":
        """Build from an n x n grid of the codes 0, +1, -1, +, -, F."""
        if not isinstance(labels, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in labels
        ):
            raise BadParams("label grid must be a list of rows, each a list of labels")
        n = len(labels)
        if n < 1 or any(len(row) != n for row in labels):
            raise BadParams("label grid must be square and nonempty")
        cells: dict[str, list[tuple[int, int]]] = {lab: [] for lab in _ALLOWED}
        for i, row in enumerate(labels, start=1):
            for j, lab in enumerate(row, start=1):
                if not isinstance(lab, str) or lab not in cells:
                    raise BadParams(
                        f"label ({i},{j}) is {lab!r}; expected one of {list(_ALLOWED)}"
                    )
                cells[lab].append((i, j))
        return SPartition(
            n=n,
            zero=SubsetMask.from_cells(n, n, cells["0"]),
            plus_one=SubsetMask.from_cells(n, n, cells["+1"]),
            minus_one=SubsetMask.from_cells(n, n, cells["-1"]),
            nonneg=SubsetMask.from_cells(n, n, cells["+"]),
            nonpos=SubsetMask.from_cells(n, n, cells["-"]),
            free=SubsetMask.from_cells(n, n, cells["F"]),
        )

    def to_labels(self) -> list[list[str]]:
        grid = [["F"] * self.n for _ in range(self.n)]
        for lab, mask in self.masks().items():
            for i, j in mask.cells:
                grid[i - 1][j - 1] = lab
        return grid

    def allows(self, mat: IntMatrix) -> bool:
        """Whether every entry of ``mat`` takes a value its cell's label allows."""
        labels = self.to_labels()
        return all(v in _ALLOWED[labels[i - 1][j - 1]] for i, j, v in mat.cells())

    def label_at(self, i: int, j: int) -> str:
        for lab, mask in self.masks().items():
            if (i, j) in mask:
                return lab
        raise InternalError(f"cell ({i},{j}) carries no label")


def _partition_instance(part: SPartition) -> PbmInstance:
    """ASM prefix windows plus entry bounds encoding the partition.

    Lower bounds are -inf (not -1) wherever a negative entry is allowed and
    upper bounds +inf wherever a positive one is; the prefix windows already
    cap entries at +-1, and the slack infinities are what make an
    infeasibility certificate collapse into a segment-family witness.
    """
    n = part.n
    f_rows = [[NEG_INF] * n for _ in range(n)]
    g_rows = [[POS_INF] * n for _ in range(n)]
    bounds = {
        "0": (fin(0), fin(0)),
        "+1": (fin(1), POS_INF),
        "-1": (NEG_INF, fin(-1)),
        "+": (fin(0), POS_INF),
        "-": (NEG_INF, fin(0)),
        "F": (NEG_INF, POS_INF),
    }
    for lab, mask in part.masks().items():
        lo, hi = bounds[lab]
        for i, j in mask.cells:
            f_rows[i - 1][j - 1] = lo
            g_rows[i - 1][j - 1] = hi
    base = asm_instance(n)
    return validate_instance(
        PbmInstance(
            m=n,
            n=n,
            phi1=base.phi1,
            gamma1=base.gamma1,
            phi2=base.phi2,
            gamma2=base.gamma2,
            f=ExtMatrix.from_rows(f_rows),
            g=ExtMatrix.from_rows(g_rows),
            alpha=NEG_INF,
            beta=POS_INF,
        )
    )


@dataclass(frozen=True, slots=True)
class SegmentFamilyCertificate:
    """A too-small separated segment family proving no compatible ASM exists.

    The family has ``size`` segments (a multiset: a one-cell segment may
    appear once horizontally and once vertically), yet any compatible ASM
    would need at least ``required`` = n + uncovered_minus_ones +
    twice_covered_plus_ones of them.
    """

    segments: tuple[Segment, ...]
    size: int
    uncovered_minus_ones: int
    twice_covered_plus_ones: int
    required: int


@dataclass(frozen=True, slots=True)
class CompatibleAsmResult:
    """A compatible ASM, or a certificate plus its segment-family reading."""

    matrix: "IntMatrix | None"
    certificate: "Certificate | None"
    family: "SegmentFamilyCertificate | None"

    @property
    def is_feasible(self) -> bool:
        return self.matrix is not None


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
    allowed_uncovered = part.zero | part.minus_one | part.nonpos
    allowed_twice = part.zero | part.plus_one | part.nonneg
    if len(uncovered - allowed_uncovered) != 0:
        raise InternalError("family leaves a cell uncovered that needs a positive entry")
    if len(twice - allowed_twice) != 0:
        raise InternalError("family doubly covers a cell that needs a negative entry")
    size = len(h_segs) + len(v_segs)
    miss = len(part.minus_one & uncovered)
    extra = len(part.plus_one & twice)
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


def _check_partition_matrix(part: SPartition, mat: IntMatrix) -> None:
    if not part.allows(mat):
        raise InternalError("compatible ASM breaks its partition labels")


def compatible_asm(part: SPartition) -> CompatibleAsmResult:
    """An ASM honoring the partition, or a segment-family impossibility proof."""
    inst = _partition_instance(part)
    result = solve(inst)
    if result.is_feasible:
        _check_partition_matrix(part, result.matrix)
        return CompatibleAsmResult(matrix=result.matrix, certificate=None, family=None)
    family = _family_from_certificate(part, result.certificate)
    return CompatibleAsmResult(matrix=None, certificate=result.certificate, family=family)


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


def subordinate_asm(x: IntMatrix) -> CompatibleAsmResult:
    """An ASM obtained from x by zeroing some nonzeros, or a family witness."""
    result = compatible_asm(_sign_partition(x))
    if result.is_feasible:
        _check_subordinate(x, result.matrix)
    return result


def _check_subordinate(x: IntMatrix, mat: IntMatrix) -> None:
    for i, j, v in mat.cells():
        if v != 0 and v != x.at(i, j):
            raise InternalError(f"entry ({i},{j}) = {v} is not subordinate to {x.at(i, j)}")


@dataclass(frozen=True, slots=True)
class SubordinateOptResult:
    """A subordinate ASM keeping the most +1 entries, or a family witness."""

    matrix: "IntMatrix | None"
    count: "int | None"
    certificate: "Certificate | None"
    family: "SegmentFamilyCertificate | None"

    @property
    def is_feasible(self) -> bool:
        return self.matrix is not None


def max_plus_ones_subordinate(x: IntMatrix) -> SubordinateOptResult:
    """Among ASMs subordinate to x, keep as many of x's +1 entries as possible.

    A single exact optimization suffices: the prefix windows cap every
    entry, so no optimum can lean on the large-K stand-ins for the
    unbounded entry sides.
    """
    part = _sign_partition(x)
    inst = _partition_instance(part)
    net = build_network(inst)
    cost = {net.n_arc_id(i, j): 1 for (i, j) in part.nonneg.cells}
    res = _optimize(inst, net, cost, "max", None)
    if res.status == "infeasible":
        family = _family_from_certificate(part, res.certificate)
        return SubordinateOptResult(
            matrix=None, count=None, certificate=res.certificate, family=family
        )
    if res.status == "unbounded":
        raise InternalError("subordinate optimum reported unbounded under capped windows")
    _check_subordinate(x, res.matrix)
    return SubordinateOptResult(matrix=res.matrix, count=res.value, certificate=None, family=None)
