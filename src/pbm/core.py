"""Core types: extended integers, matrices, cell subsets, problem instances.

Conventions used across the package:

* all indices are 1-based: rows run 1..m, columns 1..n;
* integer matrices are stored row-major as tuples of tuples;
* bound tables (``ExtMatrix``) are stored row-major as two flat tuples,
  int ``values`` and ``tags`` of -1, 0 or +1 for -inf, finite and +inf;
  an infinite cell has value 0, as an infinite ``ExtInt`` does, so the
  solver reads ints and tags and builds no ``ExtInt`` per cell;
* an instance asks for an integer m x n matrix A whose horizontal prefix
  sums lie in [phi1(i,j), gamma1(i,j)], whose vertical prefix sums lie in
  [phi2(i,j), gamma2(i,j)], whose entries lie in [f(i,j), g(i,j)], and whose
  total sum lies in [alpha, beta];
* bounds are extended integers; lower bounds may be -inf but never +inf,
  upper bounds may be +inf but never -inf;
* in JSON, infinities are the strings "-inf" and "+inf".

All arithmetic is exact; there are no floats anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, le
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BoundOrderViolation,
    DimensionMismatch,
    IllegalInfinity,
    InfinityClash,
    InstanceFormatError,
)

__all__ = [
    "ExtInt",
    "NEG_INF",
    "POS_INF",
    "fin",
    "IntMatrix",
    "ExtMatrix",
    "SubsetMask",
    "PbmInstance",
    "validate_instance",
    "instance_from_json",
    "instance_to_json",
    "matrix_from_json",
    "mask_from_json",
    "mask_to_json",
]

# every spelling of infinity that JSON input may use, with its tag
_INFINITY_TAGS = {"-inf": -1, "-infinity": -1, "+inf": 1, "inf": 1, "+infinity": 1, "infinity": 1}


@dataclass(frozen=True, slots=True)
class ExtInt:
    """An integer extended with two infinities.

    ``tag`` is -1 for -inf, 0 for a finite value, +1 for +inf.  Infinite
    values always carry ``value == 0``.  Addition of opposite infinities
    raises InfinityClash; everything else follows the usual conventions.
    """

    tag: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.tag not in (-1, 0, 1):
            raise ValueError(f"bad tag {self.tag!r}")
        if self.tag != 0 and self.value != 0:
            raise ValueError("infinite ExtInt must carry value 0")
        if self.tag == 0 and not isinstance(self.value, int):
            raise TypeError(f"finite ExtInt needs an int, got {type(self.value).__name__}")

    @property
    def is_finite(self) -> bool:
        return self.tag == 0

    @property
    def is_neg_inf(self) -> bool:
        return self.tag == -1

    @property
    def is_pos_inf(self) -> bool:
        return self.tag == 1

    def finite(self) -> int:
        """The finite value; raises if infinite."""
        if self.tag != 0:
            raise InfinityClash(f"{self} is not finite")
        return self.value

    def __add__(self, other: "ExtInt | int") -> "ExtInt":
        other = as_ext(other)
        if self.tag == 0 and other.tag == 0:
            return ExtInt(0, self.value + other.value)
        if self.tag == -other.tag and self.tag != 0:
            raise InfinityClash("cannot add -inf and +inf")
        return ExtInt(self.tag if self.tag != 0 else other.tag)

    __radd__ = __add__

    def __neg__(self) -> "ExtInt":
        return ExtInt(0, -self.value) if self.tag == 0 else ExtInt(-self.tag)

    def __sub__(self, other: "ExtInt | int") -> "ExtInt":
        return self + (-as_ext(other))

    def __rsub__(self, other: "ExtInt | int") -> "ExtInt":
        return as_ext(other) + (-self)

    # one call per comparison; functools.total_ordering would make two or three
    def __lt__(self, other: "ExtInt | int") -> bool:
        other = as_ext(other)
        return self.tag < other.tag if self.tag != other.tag else self.value < other.value

    def __le__(self, other: "ExtInt | int") -> bool:
        other = as_ext(other)
        return self.tag < other.tag if self.tag != other.tag else self.value <= other.value

    def __gt__(self, other: "ExtInt | int") -> bool:
        other = as_ext(other)
        return self.tag > other.tag if self.tag != other.tag else self.value > other.value

    def __ge__(self, other: "ExtInt | int") -> bool:
        other = as_ext(other)
        return self.tag > other.tag if self.tag != other.tag else self.value >= other.value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = fin(other)
        if not isinstance(other, ExtInt):
            return NotImplemented
        return self.tag == other.tag and self.value == other.value

    def __hash__(self) -> int:
        # a finite value equals its int, so it must hash like it
        return hash(self.value) if self.tag == 0 else hash((self.tag, 0))

    def __str__(self) -> str:
        if self.tag == -1:
            return "-inf"
        if self.tag == 1:
            return "+inf"
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExtInt({self})"

    def to_json(self) -> "int | str":
        if self.tag == 0:
            return self.value
        return str(self)

    @staticmethod
    def from_json(raw: object) -> "ExtInt":
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise InstanceFormatError(f"expected integer or infinity string, got {raw!r}")
        if isinstance(raw, int):
            return ExtInt(0, raw)
        tag = _INFINITY_TAGS.get(raw)
        if tag is None:
            raise InstanceFormatError(f"bad extended integer {raw!r}")
        return NEG_INF if tag < 0 else POS_INF


NEG_INF = ExtInt(-1)
POS_INF = ExtInt(1)

def fin(v: int) -> ExtInt:
    """Finite extended integer."""
    return ExtInt(0, v)


def as_ext(v: "ExtInt | int") -> ExtInt:
    return v if isinstance(v, ExtInt) else fin(v)


def _read_cell(e: object) -> "ExtInt | int":
    """One bound-table cell read on its own: an int or ``ExtInt`` as it is, else ``from_json``."""
    return e if type(e) is int or isinstance(e, ExtInt) else ExtInt.from_json(e)


def _check_rect(rows: Sequence[Sequence[object]], what: str) -> tuple[int, int]:
    if not isinstance(rows, (list, tuple)) or not all(
        map(isinstance, rows, repeat((list, tuple)))
    ):
        raise InstanceFormatError(f"{what} must be a list of rows, each a list")
    if not rows or not rows[0]:
        raise DimensionMismatch(f"{what} must have at least one row and one column")
    widths = [*map(len, rows)]
    n = widths[0]
    if widths.count(n) != len(widths):
        i = next(i for i, width in enumerate(widths, start=1) if width != n)
        raise DimensionMismatch(f"{what} row {i} has {widths[i - 1]} entries, expected {n}")
    return len(rows), n


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Immutable integer matrix with 1-based accessors."""

    m: int
    n: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        m, n = _check_rect(rows, "matrix")
        if set(map(type, chain.from_iterable(rows))) != {int}:
            for i, row in enumerate(rows, start=1):
                for j, v in enumerate(row, start=1):
                    if isinstance(v, bool) or not isinstance(v, int):
                        raise InstanceFormatError(f"entry ({i},{j}) is not an integer: {v!r}")
        return IntMatrix(m, n, tuple(map(tuple, rows)))

    @staticmethod
    def zeros(m: int, n: int) -> "IntMatrix":
        return IntMatrix(m, n, tuple((0,) * n for _ in range(m)))

    def at(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i - 1]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j - 1] for r in self.rows)

    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Yield (i, j, value) row-major."""
        for i, row in enumerate(self.rows, start=1):
            for j, v in enumerate(row, start=1):
                yield i, j, v

    def add(self, other: "IntMatrix") -> "IntMatrix":
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionMismatch("matrix shapes differ")
        return IntMatrix(
            self.m,
            self.n,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


@dataclass(frozen=True, slots=True)
class ExtMatrix:
    """Immutable matrix of extended integers; used for all bound tables.

    The cells are kept row-major in two flat tuples: ``values`` holds ints
    and ``tags`` holds -1, 0 or +1 per cell, as in ``ExtInt``.  An infinite
    cell has value 0, so the values of a table add up to its finite mass
    and ``value + tag * K`` clamps any cell to +-K.  ``rows``, ``at``,
    ``cells`` and ``to_lists`` build ``ExtInt``s only when called;
    ``pinned`` works on the flat ints.
    """

    m: int
    n: int
    values: tuple[int, ...]
    tags: tuple[int, ...]

    @staticmethod
    def from_rows(
        rows: Sequence[Sequence["ExtInt | int | str"]], what: str = "bound matrix"
    ) -> "ExtMatrix":
        """JSON cells or ``ExtInt``s; the first bad cell, row-major, raises as in ``from_json``.

        ``what`` names the table in a shape error.  In a table of JSON ints
        and strings, a scan of the cell types finds each string, and only
        the strings are looked up as infinity spellings.  A string that
        spells none, or a cell of any other type (``ExtInt``s, a bool, a
        float), sends the table cell by cell through ``_read_cell``, so the
        first bad cell in row-major order raises its own message.
        """
        m, n = _check_rect(rows, what)
        cells = [*chain.from_iterable(rows)]
        types = [*map(type, cells)]
        ints = types.count(int)
        if ints == len(cells):
            return ExtMatrix(m, n, tuple(cells), (0,) * ints)
        values, tags, k = cells.copy(), [0] * len(cells), -1
        try:
            for _ in range(len(cells) - ints):
                k = types.index(str, k + 1)
                values[k], tags[k] = 0, _INFINITY_TAGS[cells[k]]
        except (ValueError, KeyError):
            # fewer strings than non-ints, or a string that spells no infinity
            cells = [*map(_read_cell, cells)]
            values = [e if type(e) is int else e.value for e in cells]
            tags = [0 if type(e) is int else e.tag for e in cells]
        return ExtMatrix(m, n, tuple(values), tuple(tags))

    @staticmethod
    def constant(m: int, n: int, v: "ExtInt | int") -> "ExtMatrix":
        e = as_ext(v)
        return ExtMatrix(m, n, (e.value,) * (m * n), (e.tag,) * (m * n))

    def _cell(self, k: int) -> ExtInt:
        tag = self.tags[k]
        return ExtInt(0, self.values[k]) if tag == 0 else NEG_INF if tag < 0 else POS_INF

    @property
    def rows(self) -> tuple[tuple[ExtInt, ...], ...]:
        cells = list(map(self._cell, range(self.m * self.n)))
        return tuple(tuple(cells[k : k + self.n]) for k in range(0, self.m * self.n, self.n))

    def _index(self, i: int, j: int) -> int:
        return (i - 1) * self.n + (j - 1)

    def at(self, i: int, j: int) -> ExtInt:
        return self._cell(self._index(i, j))

    def pinned(self, pins: Iterable[tuple[int, int, int]]) -> "ExtMatrix":
        """A copy holding the finite value v at each cell (i, j) of the triples (i, j, v)."""
        values, tags = list(self.values), list(self.tags)
        for i, j, v in pins:
            values[self._index(i, j)], tags[self._index(i, j)] = v, 0
        return ExtMatrix(self.m, self.n, tuple(values), tuple(tags))

    def cells(self) -> Iterator[tuple[int, int, ExtInt]]:
        return ((k // self.n + 1, k % self.n + 1, self._cell(k)) for k in range(self.m * self.n))

    def to_lists(self) -> list[list["int | str"]]:
        return [[e.to_json() for e in row] for row in self.rows]


@dataclass(frozen=True, slots=True)
class SubsetMask:
    """A subset of the cells of an m x n grid."""

    m: int
    n: int
    cells: frozenset[tuple[int, int]]

    @staticmethod
    def from_cells(m: int, n: int, cells: Iterable[tuple[int, int]]) -> "SubsetMask":
        cs = frozenset((i, j) for i, j in cells)
        for i, j in cs:
            if isinstance(i, bool) or isinstance(j, bool) or not (
                isinstance(i, int) and isinstance(j, int)
            ):
                raise InstanceFormatError(f"cell ({i!r}, {j!r}) needs integer coordinates")
            if not (1 <= i <= m and 1 <= j <= n):
                raise DimensionMismatch(f"cell ({i},{j}) outside {m}x{n} grid")
        return SubsetMask(m, n, cs)

    @staticmethod
    def empty(m: int, n: int) -> "SubsetMask":
        return SubsetMask(m, n, frozenset())

    @staticmethod
    def full(m: int, n: int) -> "SubsetMask":
        return SubsetMask(
            m, n, frozenset((i, j) for i in range(1, m + 1) for j in range(1, n + 1))
        )

    def _same_grid(self, other: "SubsetMask") -> None:
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionMismatch("masks live on different grids")

    def __contains__(self, cell: tuple[int, int]) -> bool:
        return cell in self.cells

    def __len__(self) -> int:
        return len(self.cells)

    def __or__(self, other: "SubsetMask") -> "SubsetMask":
        self._same_grid(other)
        return SubsetMask(self.m, self.n, self.cells | other.cells)

    def __and__(self, other: "SubsetMask") -> "SubsetMask":
        self._same_grid(other)
        return SubsetMask(self.m, self.n, self.cells & other.cells)

    def __sub__(self, other: "SubsetMask") -> "SubsetMask":
        self._same_grid(other)
        return SubsetMask(self.m, self.n, self.cells - other.cells)

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.m, self.n, SubsetMask.full(self.m, self.n).cells - self.cells)

    def sorted_cells(self) -> list[tuple[int, int]]:
        return sorted(self.cells)


@dataclass(frozen=True, slots=True)
class PbmInstance:
    """A full problem instance: prefix-sum, entry, and total-sum bounds."""

    m: int
    n: int
    phi1: ExtMatrix
    gamma1: ExtMatrix
    phi2: ExtMatrix
    gamma2: ExtMatrix
    f: ExtMatrix
    g: ExtMatrix
    alpha: ExtInt
    beta: ExtInt

    @staticmethod
    def create(
        m: int,
        n: int,
        phi1: Sequence[Sequence["ExtInt | int | str"]],
        gamma1: Sequence[Sequence["ExtInt | int | str"]],
        phi2: Sequence[Sequence["ExtInt | int | str"]],
        gamma2: Sequence[Sequence["ExtInt | int | str"]],
        f: "Sequence[Sequence[ExtInt | int | str]] | None" = None,
        g: "Sequence[Sequence[ExtInt | int | str]] | None" = None,
        alpha: "ExtInt | int | None" = None,
        beta: "ExtInt | int | None" = None,
    ) -> "PbmInstance":
        """Build and validate an instance; omitted bounds default to infinite."""
        inst = PbmInstance(
            m=m,
            n=n,
            phi1=ExtMatrix.from_rows(phi1),
            gamma1=ExtMatrix.from_rows(gamma1),
            phi2=ExtMatrix.from_rows(phi2),
            gamma2=ExtMatrix.from_rows(gamma2),
            f=ExtMatrix.from_rows(f) if f is not None else ExtMatrix.constant(m, n, NEG_INF),
            g=ExtMatrix.from_rows(g) if g is not None else ExtMatrix.constant(m, n, POS_INF),
            alpha=as_ext(alpha) if alpha is not None else NEG_INF,
            beta=as_ext(beta) if beta is not None else POS_INF,
        )
        return validate_instance(inst)


def validate_instance(inst: PbmInstance) -> PbmInstance:
    """Check shapes, bound order, and infinity legality; return the instance.

    Raises DimensionMismatch, BoundOrderViolation (naming the first offending
    position in reading order), or IllegalInfinity.  Each pair of tables,
    (phi1, gamma1), then (phi2, gamma2), then (f, g), is checked in
    whole-table passes: no lower bound is +inf, no upper bound is -inf,
    and lower <= upper wherever both are finite (an infinite cell's value
    0 says nothing about order).  Only a pair that fails is scanned cell
    by cell, row-major, to name its first fault.
    """
    if inst.m < 1 or inst.n < 1:
        raise DimensionMismatch(f"need m, n >= 1, got {inst.m}x{inst.n}")
    tables = {
        "phi1": inst.phi1,
        "gamma1": inst.gamma1,
        "phi2": inst.phi2,
        "gamma2": inst.gamma2,
        "f": inst.f,
        "g": inst.g,
    }
    for name, mat in tables.items():
        if (mat.m, mat.n) != (inst.m, inst.n):
            raise DimensionMismatch(
                f"{name} is {mat.m}x{mat.n}, instance is {inst.m}x{inst.n}"
            )
    for lo_name, hi_name in (("phi1", "gamma1"), ("phi2", "gamma2"), ("f", "g")):
        lo, hi = tables[lo_name], tables[hi_name]
        if 1 not in lo.tags and -1 not in hi.tags:
            lows, highs = lo.values, hi.values
            if any(lo.tags) or any(hi.tags):
                # no +inf below and no -inf above: equal tags mean both cells finite
                finite = [*map(eq, lo.tags, hi.tags)]
                lows, highs = compress(lows, finite), compress(highs, finite)
            if all(map(le, lows, highs)):
                continue
        for k, (a, s, b, t) in enumerate(zip(lo.values, lo.tags, hi.values, hi.tags)):
            # with a below +inf and b above -inf, a > b only when both are finite
            if s == 1 or t == -1 or (s == 0 == t and a > b):
                at = f"({k // inst.n + 1},{k % inst.n + 1})"
                if s == 1:
                    raise IllegalInfinity(f"{lo_name}{at} is +inf; lower bounds may not be +inf")
                if t == -1:
                    raise IllegalInfinity(f"{hi_name}{at} is -inf; upper bounds may not be -inf")
                raise BoundOrderViolation(f"{lo_name}{at} = {a} exceeds {hi_name}{at} = {b}")
    if inst.alpha.is_pos_inf:
        raise IllegalInfinity("alpha may not be +inf")
    if inst.beta.is_neg_inf:
        raise IllegalInfinity("beta may not be -inf")
    if inst.alpha > inst.beta:
        raise BoundOrderViolation(f"alpha = {inst.alpha} exceeds beta = {inst.beta}")
    return inst


def _json_bound_matrix(doc: Mapping[str, object], key: str, m: int, n: int,
                       default: ExtInt) -> ExtMatrix:
    if key not in doc:
        return ExtMatrix.constant(m, n, default)
    raw = doc[key]
    if not isinstance(raw, list) or not all(map(isinstance, raw, repeat(list))):
        raise InstanceFormatError(f"{key} must be a list of rows, each a list")
    try:
        mat = ExtMatrix.from_rows(raw, key)
    except InstanceFormatError:
        # the table was read cell by cell, row-major: the first cell that does not read raised
        for i, row in enumerate(raw, start=1):
            for j, cell in enumerate(row, start=1):
                try:
                    _read_cell(cell)
                except InstanceFormatError as exc:
                    raise InstanceFormatError(f"{key} ({i},{j}): {exc}") from None
        raise
    if (mat.m, mat.n) != (m, n):
        raise DimensionMismatch(f"{key} is {mat.m}x{mat.n}, instance is {m}x{n}")
    return mat


def _json_ext(doc: Mapping[str, object], key: str, default: ExtInt) -> ExtInt:
    if key not in doc:
        return default
    try:
        return ExtInt.from_json(doc[key])
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{key}: {exc}") from None


def instance_from_json(doc: Mapping[str, object]) -> PbmInstance:
    """Parse and validate an instance from a JSON-shaped dict.

    Required keys: m, n, phi1, gamma1, phi2, gamma2.  Optional: f, g
    (default all -inf / +inf), alpha, beta (default -inf / +inf).  A
    malformed table or cell raises with the key, and the cell as (i,j),
    before the message, e.g. ``phi2 (2,2): bad extended integer 'x'``.
    """
    if not isinstance(doc, Mapping):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        m, n = doc["m"], doc["n"]
    except KeyError as exc:
        raise InstanceFormatError(f"missing key {exc.args[0]!r}") from None
    if not isinstance(m, int) or not isinstance(n, int) or isinstance(m, bool) or isinstance(n, bool):
        raise InstanceFormatError("m and n must be integers")
    if m < 1 or n < 1:
        raise DimensionMismatch(f"need m, n >= 1, got {m}x{n}")
    for key in ("phi1", "gamma1", "phi2", "gamma2"):
        if key not in doc:
            raise InstanceFormatError(f"missing key {key!r}")
    inst = PbmInstance(
        m=m,
        n=n,
        phi1=_json_bound_matrix(doc, "phi1", m, n, NEG_INF),
        gamma1=_json_bound_matrix(doc, "gamma1", m, n, POS_INF),
        phi2=_json_bound_matrix(doc, "phi2", m, n, NEG_INF),
        gamma2=_json_bound_matrix(doc, "gamma2", m, n, POS_INF),
        f=_json_bound_matrix(doc, "f", m, n, NEG_INF),
        g=_json_bound_matrix(doc, "g", m, n, POS_INF),
        alpha=_json_ext(doc, "alpha", NEG_INF),
        beta=_json_ext(doc, "beta", POS_INF),
    )
    return validate_instance(inst)


def instance_to_json(inst: PbmInstance) -> dict:
    doc: dict = {
        "m": inst.m,
        "n": inst.n,
        "phi1": inst.phi1.to_lists(),
        "gamma1": inst.gamma1.to_lists(),
        "phi2": inst.phi2.to_lists(),
        "gamma2": inst.gamma2.to_lists(),
        "f": inst.f.to_lists(),
        "g": inst.g.to_lists(),
        "alpha": inst.alpha.to_json(),
        "beta": inst.beta.to_json(),
    }
    return doc


def matrix_from_json(raw: object) -> IntMatrix:
    """Parse an integer matrix from either [[..]] or {"matrix": [[..]]}."""
    if isinstance(raw, Mapping) and "matrix" in raw:
        raw = raw["matrix"]
    if not isinstance(raw, list):
        raise InstanceFormatError("matrix must be a list of rows")
    return IntMatrix.from_rows(raw)


def mask_from_json(m: int, n: int, raw: object) -> SubsetMask:
    """Parse a cell subset from [[i,j],...] or {"cells": [[i,j],...]}."""
    if isinstance(raw, Mapping) and "cells" in raw:
        raw = raw["cells"]
    if not isinstance(raw, list):
        raise InstanceFormatError("subset must be a list of [i, j] pairs")
    cells = []
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise InstanceFormatError(f"bad cell {item!r}; expected [i, j]")
        if any(isinstance(c, bool) or not isinstance(c, int) for c in item):
            raise InstanceFormatError(f"bad cell {item!r}; coordinates must be integers")
        cells.append((item[0], item[1]))
    return SubsetMask.from_cells(m, n, cells)


def mask_to_json(mask: SubsetMask) -> list[list[int]]:
    return [[i, j] for (i, j) in mask.sorted_cells()]
