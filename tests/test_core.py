"""Extended integers, matrices, masks, instance validation, JSON round trips."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbm.core import (
    _INFINITY_TAGS,
    NEG_INF,
    POS_INF,
    ExtInt,
    ExtMatrix,
    IntMatrix,
    PbmInstance,
    SubsetMask,
    _read_cell,
    as_ext,
    fin,
    instance_from_json,
    instance_to_json,
    mask_from_json,
    mask_to_json,
    matrix_from_json,
    validate_instance,
)
from pbm.errors import (
    BoundOrderViolation,
    DimensionMismatch,
    IllegalInfinity,
    InfinityClash,
    InstanceFormatError,
)

finite_ints = st.integers(min_value=-10**6, max_value=10**6)
ext_ints = st.one_of(st.just(NEG_INF), st.just(POS_INF), finite_ints.map(fin))


class TestExtInt:
    def test_ordering(self):
        assert NEG_INF < fin(-(10**9)) < fin(0) < fin(10**9) < POS_INF
        assert fin(3) == fin(3)
        assert not NEG_INF < NEG_INF

    def test_addition(self):
        assert fin(2) + fin(3) == fin(5)
        assert POS_INF + fin(7) == POS_INF
        assert NEG_INF + NEG_INF == NEG_INF
        with pytest.raises(InfinityClash):
            POS_INF + NEG_INF

    def test_negation_subtraction(self):
        assert -fin(4) == fin(-4)
        assert -POS_INF == NEG_INF
        assert fin(1) - fin(5) == fin(-4)
        assert POS_INF - fin(3) == POS_INF
        with pytest.raises(InfinityClash):
            POS_INF - POS_INF

    def test_finite_accessor(self):
        assert fin(9).finite() == 9
        with pytest.raises(InfinityClash):
            POS_INF.finite()

    def test_json(self):
        assert fin(5).to_json() == 5
        assert POS_INF.to_json() == "+inf"
        assert NEG_INF.to_json() == "-inf"
        assert ExtInt.from_json("inf") == POS_INF
        assert ExtInt.from_json("-infinity") == NEG_INF
        assert ExtInt.from_json(-3) == fin(-3)
        with pytest.raises(InstanceFormatError):
            ExtInt.from_json("seven")

    @given(ext_ints)
    def test_json_round_trip(self, x):
        assert ExtInt.from_json(x.to_json()) == x

    @given(finite_ints, finite_ints)
    def test_finite_addition_matches_int(self, a, b):
        assert (fin(a) + fin(b)).finite() == a + b

    @given(ext_ints, ext_ints)
    def test_ordering_total(self, x, y):
        assert (x < y) + (x == y) + (y < x) == 1

    def test_as_ext(self):
        assert as_ext(3) == fin(3)
        assert as_ext(POS_INF) == POS_INF

    @given(finite_ints)
    def test_finite_hashes_as_its_int(self, v):
        assert hash(fin(v)) == hash(v)
        assert v in {fin(v)} and fin(v) in {v}
        assert {fin(v): "x"}[v] == "x" and {v: "y"}[fin(v)] == "y"

    def test_checked_constructor_keeps_its_checks(self):
        with pytest.raises(TypeError):
            ExtInt(0, 1.0)
        with pytest.raises(TypeError):
            fin(1.0)
        with pytest.raises(ValueError):
            ExtInt(2)
        with pytest.raises(ValueError):
            ExtInt(1, 5)


class TestIntMatrix:
    def test_accessors_and_total(self):
        mat = IntMatrix.from_rows([[1, -2, 3], [0, 4, -1]])
        assert mat.at(1, 2) == -2
        assert mat.total() == 5
        assert mat.row(2) == (0, 4, -1)
        assert mat.col(3) == (3, -1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_add_and_cells(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        b = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert a.add(b).to_lists() == [[1, 1], [1, 1]]
        assert sorted(a.cells()) == [(1, 1, 1), (1, 2, 0), (2, 1, 0), (2, 2, 1)]

    def test_zeros(self):
        assert IntMatrix.zeros(2, 3).total() == 0

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, True]], "entry (1,2) is not an integer: True"),
            ([[1, 1], [True, 1]], "entry (2,1) is not an integer: True"),
            ([[1, 2], [3, 4.0]], "entry (2,2) is not an integer: 4.0"),
            ([["1", [2]]], "entry (1,1) is not an integer: '1'"),
        ],
    )
    def test_first_non_integer_named(self, rows, message):
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            IntMatrix.from_rows(rows)


class TestExtMatrix:
    def test_mixed_input(self):
        mat = ExtMatrix.from_rows([[1, "-inf"], [POS_INF, 0]])
        assert mat.at(1, 1) == fin(1)
        assert mat.at(1, 2) == NEG_INF
        assert mat.at(2, 1) == POS_INF

    def test_constant(self):
        mat = ExtMatrix.constant(2, 2, fin(7))
        assert all(v == fin(7) for _, _, v in mat.cells())


def _per_cell(rows):
    """Each cell parsed on its own, row-major: the reference for ``ExtMatrix.from_rows``."""
    return tuple(
        tuple(v if isinstance(v, ExtInt) else ExtInt.from_json(v) for v in row) for row in rows
    )


INFINITY_SPELLINGS = ["-inf", "+inf", "inf", "-infinity", "+infinity", "infinity"]
json_cells = st.one_of(
    st.integers(-(10**40), 10**40),
    st.integers(-2, 2),
    st.sampled_from(INFINITY_SPELLINGS),
)
json_tables = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(json_cells, min_size=n, max_size=n), min_size=1, max_size=5)
)
# what a table may hold: JSON ints of any size and sign, every spelling of
# infinity, ExtInts, and now and then a cell that no parse accepts
good_cells = st.one_of(
    st.integers(-(2**310), 2**310),
    st.integers(-3, 3),
    st.sampled_from(INFINITY_SPELLINGS),
    st.sampled_from([NEG_INF, POS_INF]),
    st.integers(-(2**310), 2**310).map(fin),
)
bad_cells = st.one_of(
    st.floats(allow_nan=False),
    st.booleans(),
    st.sampled_from(["", "zzz", "Infinity", "+-inf", "1", " inf", "nan"]),
    st.lists(st.integers(-2, 2), max_size=2),
    st.none(),
)
mixed_tables = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(
        st.lists(
            st.one_of(good_cells, good_cells, good_cells, bad_cells), min_size=mn[1], max_size=mn[1]
        ),
        min_size=mn[0],
        max_size=mn[0],
    )
)


# JSON ints of any size with every spelling of infinity, and cells that no parse accepts
string_tables = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(
        st.lists(
            st.one_of(st.integers(-(2**70), 2**70), st.sampled_from(sorted(_INFINITY_TAGS))),
            min_size=mn[1],
            max_size=mn[1],
        ),
        min_size=mn[0],
        max_size=mn[0],
    )
)
non_cells = st.one_of(
    st.sampled_from(["", "zzz", "Inf", "+-inf", "1", " inf", "nan"]),
    st.booleans(),
    st.floats(allow_nan=False),
)


def _reads(cell) -> bool:
    try:
        _read_cell(cell)
    except InstanceFormatError:
        return False
    return True


class TestFlatParse:
    @given(json_tables)
    def test_matches_per_cell_parse(self, rows):
        mat = ExtMatrix.from_rows(rows)
        assert mat.rows == _per_cell(rows)
        assert all(type(e.value) is int for row in mat.rows for e in row)

    @given(mixed_tables)
    def test_mixed_tables_match_per_cell_parse(self, rows):
        try:
            want = _per_cell(rows)
        except InstanceFormatError as exc:
            with pytest.raises(InstanceFormatError) as got:
                ExtMatrix.from_rows(rows)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
            return
        mat = ExtMatrix.from_rows(rows)
        m, n = len(rows), len(rows[0])
        assert (mat.m, mat.n) == (m, n)
        assert mat.rows == want
        assert all(
            mat.at(i, j) == want[i - 1][j - 1] for i in range(1, m + 1) for j in range(1, n + 1)
        )
        assert list(mat.cells()) == [
            (i, j, want[i - 1][j - 1]) for i in range(1, m + 1) for j in range(1, n + 1)
        ]
        assert mat.to_lists() == [[e.to_json() for e in row] for row in want]
        # an infinite cell keeps value 0, as an infinite ExtInt does
        assert all(v == 0 for v, t in zip(mat.values, mat.tags) if t)
        assert all(type(v) is int for v in mat.values)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, True]], "expected integer or infinity string, got True"),
            # True == 1, so one table entry would serve both
            ([[1, 1], [True, 1]], "expected integer or infinity string, got True"),
            ([[1, "-inf"], [1.0, 1]], "expected integer or infinity string, got 1.0"),
            ([[2, [2]]], "expected integer or infinity string, got [2]"),
            # the first bad string in row-major order is named, whichever is met first
            ([["-inf", "zzz"], ["aaa", 1]], "bad extended integer 'zzz'"),
            ([["aaa", "zzz"], ["-inf", 1]], "bad extended integer 'aaa'"),
        ],
    )
    def test_errors_match_per_cell_parse(self, rows, message):
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            _per_cell(rows)
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            ExtMatrix.from_rows(rows)

    def test_extint_cells_still_accepted(self):
        mat = ExtMatrix.from_rows([[fin(1), 1, "+inf"], [NEG_INF, 1, 2]])
        assert mat.rows == ((fin(1), fin(1), POS_INF), (NEG_INF, fin(1), fin(2)))

    @given(string_tables)
    def test_strings_read_as_each_cell_alone(self, rows):
        cells = [_read_cell(c) for row in rows for c in row]
        mat = ExtMatrix.from_rows(rows)
        assert mat.values == tuple(c if type(c) is int else c.value for c in cells)
        assert mat.tags == tuple(0 if type(c) is int else c.tag for c in cells)

    @given(string_tables, st.lists(st.tuples(st.integers(0, 35), non_cells), min_size=1, max_size=3))
    def test_bad_cell_anywhere_raises_the_first_ones_message(self, rows, bad):
        m, n = len(rows), len(rows[0])
        cells = [c for row in rows for c in row]
        for k, cell in bad:
            cells[k % len(cells)] = cell
        rows = [cells[k : k + n] for k in range(0, m * n, n)]
        first = next(k for k, c in enumerate(cells) if not _reads(c))
        with pytest.raises(InstanceFormatError) as want:
            _read_cell(cells[first])
        with pytest.raises(InstanceFormatError) as got:
            ExtMatrix.from_rows(rows)
        assert str(got.value) == str(want.value)
        # a document names the table and the cell before the message
        doc = {"m": m, "n": n, "phi1": [["-inf"] * n] * m, "gamma1": rows,
               "phi2": [["-inf"] * n] * m, "gamma2": [["+inf"] * n] * m}
        message = f"gamma1 ({first // n + 1},{first % n + 1}): {want.value}"
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)


class TestSubsetMask:
    def test_set_algebra(self):
        a = SubsetMask.from_cells(2, 2, [(1, 1), (1, 2)])
        b = SubsetMask.from_cells(2, 2, [(1, 2), (2, 1)])
        assert sorted((a | b).sorted_cells()) == [(1, 1), (1, 2), (2, 1)]
        assert (a & b).sorted_cells() == [(1, 2)]
        assert (a - b).sorted_cells() == [(1, 1)]
        assert a.complement().sorted_cells() == [(2, 1), (2, 2)]
        assert len(SubsetMask.full(2, 2)) == 4
        assert len(SubsetMask.empty(2, 2)) == 0

    def test_membership(self):
        mask = SubsetMask.from_cells(2, 3, [(1, 1), (1, 3), (2, 3)])
        assert (1, 1) in mask and (2, 1) not in mask

    def test_out_of_range_cell_rejected(self):
        with pytest.raises(DimensionMismatch):
            SubsetMask.from_cells(2, 2, [(3, 1)])

    @pytest.mark.parametrize("cell", [(1.7, 1), (True, 1), ("1", 1)])
    def test_non_integer_cell_rejected(self, cell):
        with pytest.raises(InstanceFormatError):
            SubsetMask.from_cells(2, 2, [cell])


class TestInstanceValidation:
    def test_create_defaults_are_infinite(self):
        inst = PbmInstance.create(
            1,
            1,
            [[fin(0)]],
            [[fin(1)]],
            [[fin(0)]],
            [[fin(1)]],
        )
        assert inst.f.at(1, 1) == NEG_INF
        assert inst.g.at(1, 1) == POS_INF
        assert inst.alpha == NEG_INF and inst.beta == POS_INF

    def test_bound_order_violation_names_position(self):
        with pytest.raises(BoundOrderViolation) as exc:
            PbmInstance.create(1, 2, [[fin(0), fin(2)]], [[fin(1), fin(1)]], [[fin(0), fin(0)]], [[fin(0), fin(0)]])
        assert "(1, 2)" in str(exc.value) or "(1,2)" in str(exc.value)

    def test_illegal_infinity(self):
        with pytest.raises(IllegalInfinity):
            PbmInstance.create(1, 1, [[POS_INF]], [[POS_INF]], [[fin(0)]], [[fin(0)]])
        with pytest.raises(IllegalInfinity):
            PbmInstance.create(1, 1, [[fin(0)]], [[NEG_INF]], [[fin(0)]], [[fin(0)]])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PbmInstance.create(2, 1, [[fin(0)]], [[fin(0)]], [[fin(0)]], [[fin(0)]])

    def test_validate_passthrough(self):
        inst = PbmInstance.create(1, 1, [[fin(0)]], [[fin(0)]], [[fin(0)]], [[fin(0)]])
        validate_instance(inst)


def _doc(**changes):
    """A valid 2x2 instance document with some keys replaced."""
    doc = {
        "m": 2,
        "n": 2,
        "phi1": [[0, 0], [0, 0]],
        "gamma1": [[1, 1], [1, 1]],
        "phi2": [[0, 0], [0, 0]],
        "gamma2": [[1, 1], [1, 1]],
        "f": [[-1, -1], [-1, -1]],
        "g": [[1, 1], [1, 1]],
        "alpha": 0,
        "beta": 4,
    }
    doc.update(changes)
    return doc


def _with_cells(cells):
    """A 2x2 table, 0 except at the given {(i, j): value} cells."""
    return [[cells.get((i, j), 0) for j in (1, 2)] for i in (1, 2)]


TABLES = ("phi1", "gamma1", "phi2", "gamma2", "f", "g")
BOUND_PAIRS = (("phi1", "gamma1"), ("phi2", "gamma2"), ("f", "g"))


class TestParseAndValidate:
    @pytest.mark.parametrize("key", TABLES + ("alpha", "beta"))
    @pytest.mark.parametrize(
        "bad, message",
        [
            (True, "expected integer or infinity string, got True"),
            (0.0, "expected integer or infinity string, got 0.0"),
            (None, "expected integer or infinity string, got None"),
            ([0], "expected integer or infinity string, got [0]"),
            ("+Inf", "bad extended integer '+Inf'"),
            ("seven", "bad extended integer 'seven'"),
        ],
    )
    def test_bad_cell_rejected(self, key, bad, message):
        # the parse's own message, after the key and, in a table, the cell
        if key in TABLES:
            doc = _doc()
            doc[key][1][0] = bad
            message = f"{key} (2,1): {message}"
        else:
            doc = _doc(**{key: bad})
            message = f"{key}: {message}"
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)

    @pytest.mark.parametrize("lo, hi", BOUND_PAIRS)
    def test_bound_order_names_first_fault(self, lo, hi):
        doc = _doc(**{lo: _with_cells({(1, 2): 5, (2, 1): 7}), hi: _with_cells({(1, 2): 3})})
        message = f"{lo}(1,2) = 5 exceeds {hi}(1,2) = 3"
        with pytest.raises(BoundOrderViolation, match=re.escape(message)):
            instance_from_json(doc)

    @pytest.mark.parametrize("lo, hi", BOUND_PAIRS)
    def test_illegal_infinity_names_first_fault(self, lo, hi):
        plus = _with_cells({(1, 2): "+inf", (2, 1): "+inf"})
        message = f"{lo}(1,2) is +inf; lower bounds may not be +inf"
        with pytest.raises(IllegalInfinity, match=re.escape(message)):
            instance_from_json(_doc(**{lo: plus, hi: plus}))
        message = f"{hi}(2,1) is -inf; upper bounds may not be -inf"
        with pytest.raises(IllegalInfinity, match=re.escape(message)):
            instance_from_json(_doc(**{hi: _with_cells({(2, 1): "-inf", (2, 2): "-inf"})}))

    @pytest.mark.parametrize("lo, hi", BOUND_PAIRS)
    def test_earlier_fault_wins_across_kinds(self, lo, hi):
        doc = _doc(**{lo: _with_cells({(1, 2): 2, (2, 1): "+inf"})})
        message = f"{lo}(1,2) = 2 exceeds {hi}(1,2) = "
        with pytest.raises(BoundOrderViolation, match=re.escape(message)):
            instance_from_json(doc)
        lo_cells = _with_cells({(1, 1): "+inf", (2, 2): 9})
        doc = _doc(**{lo: lo_cells, hi: _with_cells({(1, 1): "+inf"})})
        with pytest.raises(IllegalInfinity, match=re.escape(f"{lo}(1,1) is +inf")):
            instance_from_json(doc)

    def test_total_window_messages(self):
        with pytest.raises(IllegalInfinity, match="^alpha may not be \\+inf$"):
            instance_from_json(_doc(alpha="+inf"))
        with pytest.raises(IllegalInfinity, match="^beta may not be -inf$"):
            instance_from_json(_doc(beta="-inf"))
        with pytest.raises(BoundOrderViolation, match="^alpha = 5 exceeds beta = 4$"):
            instance_from_json(_doc(alpha=5))


def _validate_cell_by_cell(inst):
    """``validate_instance``'s checks one cell at a time, in its order: the reference."""
    tables = {name: getattr(inst, name) for name in TABLES}
    for lo_name, hi_name in BOUND_PAIRS:
        for i in range(1, inst.m + 1):
            for j in range(1, inst.n + 1):
                a, b = tables[lo_name].at(i, j), tables[hi_name].at(i, j)
                lo, hi = f"{lo_name}({i},{j})", f"{hi_name}({i},{j})"
                if a.is_pos_inf:
                    raise IllegalInfinity(f"{lo} is +inf; lower bounds may not be +inf")
                if b.is_neg_inf:
                    raise IllegalInfinity(f"{hi} is -inf; upper bounds may not be -inf")
                if a > b:
                    raise BoundOrderViolation(f"{lo} = {a} exceeds {hi} = {b}")
    if inst.alpha.is_pos_inf:
        raise IllegalInfinity("alpha may not be +inf")
    if inst.beta.is_neg_inf:
        raise IllegalInfinity("beta may not be -inf")
    if inst.alpha > inst.beta:
        raise BoundOrderViolation(f"alpha = {inst.alpha} exceeds beta = {inst.beta}")


@st.composite
def unvalidated_instances(draw):
    """Instances built without validation; each bound pair is ordered or drawn freely.

    An ordered pair breaks no rule, but puts -inf beside upper bounds of
    any sign, so a -inf's value 0 meets negative upper bounds (and +inf's
    value 0 positive lower bounds).  A free pair draws each cell on its
    own and now and then the wrong infinity, so faults land in every pair
    and at any cell.
    """
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    small = st.integers(-3, 3)
    free_lower = st.one_of(st.just(NEG_INF), small.map(fin), small.map(fin), st.just(POS_INF))
    free_upper = st.one_of(st.just(POS_INF), small.map(fin), small.map(fin), st.just(NEG_INF))
    tables = {}
    for lo_name, hi_name in BOUND_PAIRS:
        ordered = draw(st.integers(0, 3)) > 0
        lows, highs = [], []
        for _ in range(m * n):
            if ordered:
                lo = draw(st.one_of(st.just(NEG_INF), small.map(fin)))
                hi = draw(st.one_of(st.just(POS_INF), small.map(fin)))
                if lo.is_finite and hi.is_finite and lo > hi:
                    lo, hi = hi, lo
            else:
                lo, hi = draw(free_lower), draw(free_upper)
            lows.append(lo)
            highs.append(hi)
        tables[lo_name], tables[hi_name] = (
            ExtMatrix.from_rows([cells[k : k + n] for k in range(0, m * n, n)])
            for cells in (lows, highs)
        )
    return PbmInstance(m, n, **tables, alpha=draw(free_lower), beta=draw(free_upper))


class TestValidateAgainstCellLoop:
    @given(unvalidated_instances())
    @settings(max_examples=200)
    def test_first_error_matches_cell_loop(self, inst):
        try:
            _validate_cell_by_cell(inst)
        except (IllegalInfinity, BoundOrderViolation) as exc:
            with pytest.raises(type(exc)) as got:
                validate_instance(inst)
            assert str(got.value) == str(exc)
            return
        assert validate_instance(inst) is inst

    @pytest.mark.parametrize("lo, hi", BOUND_PAIRS)
    def test_value_zero_of_an_infinity_bounds_nothing(self, lo, hi):
        # -inf and +inf keep value 0, which must not be read as 0 > -5 or 5 > 0
        minus = _with_cells({(1, 2): "-inf", (2, 2): "-inf"})
        instance_from_json(_doc(**{lo: minus, hi: _with_cells({(1, 2): -5})}))
        plus = _with_cells({(2, 1): "+inf"})
        instance_from_json(_doc(**{lo: _with_cells({(2, 1): 5}), hi: plus}))


class TestJson:
    def test_instance_round_trip(self):
        doc = {
            "m": 2,
            "n": 2,
            "phi1": [[0, "-inf"], [0, 1]],
            "gamma1": [[1, 1], [0, 1]],
            "phi2": [[0, 0], [1, 1]],
            "gamma2": [[1, 1], [1, 1]],
            "f": [[-1, -1], [-1, -1]],
            "g": [[1, 1], [1, 1]],
            "alpha": "-inf",
            "beta": 5,
        }
        inst = instance_from_json(doc)
        assert inst.phi1.at(1, 2) == NEG_INF
        assert inst.beta == fin(5)
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_optional_blocks_default(self):
        doc = {
            "m": 1,
            "n": 1,
            "phi1": [[0]],
            "gamma1": [[1]],
            "phi2": [[0]],
            "gamma2": [[1]],
        }
        inst = instance_from_json(doc)
        assert inst.f.at(1, 1) == NEG_INF and inst.g.at(1, 1) == POS_INF

    def test_missing_key_rejected(self):
        with pytest.raises(InstanceFormatError):
            instance_from_json({"m": 1, "n": 1})

    @pytest.mark.parametrize(
        "parse, raw, message",
        [
            (instance_from_json, [[0]], "instance document must be a JSON object"),
            (instance_from_json, {"n": 1}, "missing key 'm'"),
            (matrix_from_json, 5, "matrix must be a list of rows"),
            (lambda raw: mask_from_json(2, 2, raw), 5, "subset must be a list of [i, j] pairs"),
            (lambda raw: mask_from_json(2, 2, raw), [[1]], "bad cell [1]; expected [i, j]"),
        ],
        ids=["instance-not-object", "instance-no-m", "matrix-not-list", "mask-not-list",
             "mask-short-cell"],
    )
    def test_bad_document_rejected(self, parse, raw, message):
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            parse(raw)

    def test_matrix_round_trip(self):
        mat = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert matrix_from_json(mat.to_lists()) == mat
        assert matrix_from_json({"matrix": [[1, 2], [3, 4]]}) == mat

    def test_mask_round_trip(self):
        mask = SubsetMask.from_cells(2, 2, [(1, 2), (2, 1)])
        assert mask_from_json(2, 2, mask_to_json(mask)) == mask
        assert mask_from_json(2, 2, [[1, 2], [2, 1]]) == mask
        assert mask_from_json(2, 2, {"cells": [[1, 1]]}) == SubsetMask.from_cells(2, 2, [(1, 1)])
