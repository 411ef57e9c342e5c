"""Strong-pair values p*, b* and the four feasibility inequalities."""

import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbm.core import NEG_INF, POS_INF, ExtMatrix, PbmInstance, SubsetMask, fin
from pbm.errors import InfinityClash
from pbm.asmkit import asm_instance, pasm_instance
from pbm.oracle import _PairTables
from pbm.segments import HORIZONTAL, VERTICAL, maximal_segments
from pbm.strongpair import (
    INEQUALITY_NAMES,
    condition_values,
    elementary_pair,
    eval_strong_pair,
    mask_sum,
    pair_record,
)

from helpers import finite_random, random_instance


class TestElementaryPair:
    def test_asm_row_interior_segment(self):
        phi = [fin(0), fin(0), fin(1)]
        gamma = [fin(1), fin(1), fin(1)]
        p, b = elementary_pair(phi, gamma, 2, 3)
        assert (p, b) == (fin(0), fin(1))

    def test_asm_row_prefix(self):
        phi = [fin(0), fin(0), fin(1)]
        gamma = [fin(1), fin(1), fin(1)]
        p, b = elementary_pair(phi, gamma, 1, 2)
        assert (p, b) == (fin(0), fin(1))

    def test_infinite_lower_window(self):
        phi = [NEG_INF, NEG_INF]
        gamma = [fin(0), fin(0)]
        p, b = elementary_pair(phi, gamma, 2, 2)
        assert (p, b) == (NEG_INF, POS_INF)

    def test_position_zero_is_origin(self):
        phi = [fin(2), fin(5)]
        gamma = [fin(3), fin(6)]
        # h=1: phi(0), gamma(0) read as 0
        p, b = elementary_pair(phi, gamma, 1, 2)
        assert (p, b) == (fin(5), fin(6))


class TestEvalStrongPair:
    def test_asm3_full_first_row(self):
        inst = asm_instance(3)
        row1 = SubsetMask.from_cells(3, 3, [(1, 1), (1, 2), (1, 3)])
        ev = eval_strong_pair(inst, row1)
        assert ev.p1 == fin(1) and ev.b1 == fin(1)

    def test_asm3_single_interior_cell(self):
        inst = asm_instance(3)
        one = SubsetMask.from_cells(3, 3, [(1, 2)])
        ev = eval_strong_pair(inst, one)
        assert ev.p1 == fin(-1) and ev.b1 == fin(1)

    def test_pasm_full_grid(self):
        inst = pasm_instance(2, 2)
        full = SubsetMask.full(2, 2)
        ev = eval_strong_pair(inst, full)
        assert ev.b1 == fin(2) and ev.p1 == fin(0)

    def test_empty_subset_is_zero(self):
        ev = eval_strong_pair(asm_instance(2), SubsetMask.empty(2, 2))
        assert ev.p1 == ev.b1 == ev.p2 == ev.b2 == fin(0)

    def test_additive_over_separated_segments(self):
        inst = asm_instance(3)
        left = SubsetMask.from_cells(3, 3, [(2, 1)])
        right = SubsetMask.from_cells(3, 3, [(2, 3)])
        both = left | right
        for field in ("p1", "b1", "p2", "b2"):
            assert getattr(eval_strong_pair(inst, both), field) == getattr(
                eval_strong_pair(inst, left), field
            ) + getattr(eval_strong_pair(inst, right), field)


def test_mask_sum():
    mat = ExtMatrix.from_rows([[1, "-inf"], [3, 4]])
    mask = SubsetMask.from_cells(2, 2, [(1, 1), (2, 2)])
    assert mask_sum(mat, mask) == 5
    assert mask_sum(mat, SubsetMask.empty(2, 2)) == 0
    assert mask_sum(mat, SubsetMask.full(2, 2)) == NEG_INF


class TestConditionValues:
    def test_record_names(self):
        inst = asm_instance(2)
        ev = condition_values(inst, SubsetMask.empty(2, 2), SubsetMask.empty(2, 2))
        assert tuple(r.name for r in ev.records()) == INEQUALITY_NAMES
        assert ev.all_hold

    def test_by_name(self):
        inst = asm_instance(2)
        ev = condition_values(inst, SubsetMask.full(2, 2), SubsetMask.full(2, 2))
        for name in INEQUALITY_NAMES:
            assert ev.by_name(name).name == name

    def test_violation_detected_on_contradictory_instance(self):
        # horizontal pins total to 1, vertical pins it to 0
        inst = PbmInstance.create(
            1, 1, [[fin(1)]], [[fin(1)]], [[fin(0)]], [[fin(0)]]
        )
        full = SubsetMask.full(1, 1)
        ev = condition_values(inst, full, full)
        rec = ev.by_name("gen1a")
        assert not rec.holds and rec.lhs == fin(1) and rec.rhs == fin(0)

    def test_capped_entry_breaks_forced_one(self):
        import dataclasses

        from pbm.core import ExtMatrix

        # 1x1 ASM whose single entry is capped at 0: the row still demands 1
        inst = dataclasses.replace(asm_instance(1), g=ExtMatrix.from_rows([[0]]))
        ev = condition_values(inst, SubsetMask.full(1, 1), SubsetMask.empty(1, 1))
        rec = ev.by_name("gen1a")
        assert not rec.holds and rec.lhs == fin(1) and rec.rhs == fin(0)


@st.composite
def finite_windows(draw):
    n = draw(st.integers(1, 4))
    phi, gamma = [], []
    for _ in range(n):
        lo = draw(st.integers(-4, 4))
        phi.append(fin(lo))
        gamma.append(fin(draw(st.integers(lo, 4))))
    return phi, gamma


@given(finite_windows(), st.data())
@settings(max_examples=200)
def test_p_never_exceeds_b(windows, data):
    phi, gamma = windows
    n = len(phi)
    h = data.draw(st.integers(1, n))
    k = data.draw(st.integers(h, n))
    p, b = elementary_pair(phi, gamma, h, k)
    assert p <= b


@given(st.lists(st.one_of(st.integers(-(10**6), 10**6), st.sampled_from(["-inf", "+inf"]))))
def test_mask_sum_is_the_left_fold(cells):
    # unvalidated tables may mix both infinities, which must clash as in ExtInt's +
    table = ExtMatrix.from_rows([cells or [0]])
    mask = SubsetMask.full(1, table.n) if cells else SubsetMask.empty(1, 1)
    try:
        want = functools.reduce(operator.add, table.rows[0] if cells else [], fin(0))
    except InfinityClash:
        with pytest.raises(InfinityClash):
            mask_sum(table, mask)
    else:
        assert mask_sum(table, mask) == want


def test_mask_pair_with_infinite_terms_still_evaluates():
    rng = random.Random(11)
    inst = finite_random(rng, 2, 3)
    x1 = SubsetMask.from_cells(2, 3, [(1, 1), (2, 2)])
    x2 = SubsetMask.from_cells(2, 3, [(1, 1), (1, 3)])
    ev = condition_values(inst, x1, x2)
    assert len(ev.records()) == 4
    for rec in ev.records():
        assert rec.holds == (not rec.lhs > rec.rhs)


def test_dimension_mismatch_rejected():
    from pbm.errors import DimensionMismatch

    inst = asm_instance(2)
    with pytest.raises(DimensionMismatch):
        eval_strong_pair(inst, SubsetMask.full(3, 3))


@pytest.mark.parametrize("inf_rate", [0.25, 0.6])
def test_condition_values_match_oracle_pair_tables(inf_rate):
    """Run-end evaluation against the oracle's per-bitmask tables.

    The shapes include every m x 1 and 1 x n grid up to 12 cells, where a
    row's next cell and a column's next cell are both one step away.
    """
    rng = random.Random(f"pair-tables:{inf_rate}")
    shapes = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
    for _ in range(30):
        m, n = rng.choice(shapes)
        inst = random_instance(rng, m, n, inf_rate)
        tables = _PairTables(inst)
        for _ in range(25):
            b1, b2 = rng.randrange(1 << (m * n)), rng.randrange(1 << (m * n))
            x1, x2 = tables.mask_to_subset(b1), tables.mask_to_subset(b2)
            got = condition_values(inst, x1, x2)
            want = tables.pair_values(b1, b2)
            assert [(r.name, r.lhs, r.rhs) for r in got.records()] == want
            ev = eval_strong_pair(inst, x1)
            assert (ev.p1, ev.b1, ev.p2, ev.b2) == (
                tables.p1[b1],
                tables.b1[b1],
                tables.p2[b1],
                tables.b2[b1],
            )
            assert mask_sum(inst.f, x1) == tables.fsum[b1]


@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_strong_pair_sums_elementary_pairs_over_maximal_segments(m, n, data):
    # the strong pair of a subset is additive over its maximal segments, each
    # adding the elementary pair of its line's windows
    inst = random_instance(random.Random(data.draw(st.integers(0, 10**6))), m, n, 0.3)
    cells = data.draw(st.sets(st.tuples(st.integers(1, m), st.integers(1, n))))
    mask = SubsetMask.from_cells(m, n, cells)
    pairs = []
    for orientation, lo, hi in ((HORIZONTAL, inst.phi1, inst.gamma1),
                                (VERTICAL, inst.phi2, inst.gamma2)):
        p = b = fin(0)
        for seg in maximal_segments(mask, orientation):
            if orientation == HORIZONTAL:
                line = [(seg.line, c) for c in range(1, n + 1)]
            else:
                line = [(r, seg.line) for r in range(1, m + 1)]
            sp, sb = elementary_pair(
                [lo.at(*c) for c in line], [hi.at(*c) for c in line], seg.start, seg.end
            )
            p, b = p + sp, b + sb
        pairs += [p, b]
    ev = eval_strong_pair(inst, mask)
    assert [ev.p1, ev.b1, ev.p2, ev.b2] == pairs


@given(st.integers(1, 6), st.data())
def test_asm_strong_pair_counts_segments(n, data):
    # the paper's strong pair in its alternating sign matrix case: on the ASM
    # windows (every prefix sum in [0, 1], every line sum 1) an interior
    # segment's elementary pair is (-1, 1), a prefix's or a suffix's (0, 1)
    # and a full line's (1, 1), so p = full - interior segments and b counts
    # the segments, by rows and by columns alike
    cells = data.draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n))))
    mask = SubsetMask.from_cells(n, n, cells)
    ev = eval_strong_pair(asm_instance(n), mask)
    for orientation, pair in ((HORIZONTAL, (ev.p1, ev.b1)), (VERTICAL, (ev.p2, ev.b2))):
        segs = maximal_segments(mask, orientation)
        full = sum(s.start == 1 and s.end == n for s in segs)
        interior = sum(1 < s.start and s.end < n for s in segs)
        assert pair == (full - interior, len(segs))


@pytest.mark.parametrize(
    "cells, pairs",
    [
        # rows: a prefix, a suffix and a full row; columns: a prefix and a suffix
        # in column 1, a full column 2 and a suffix in column 3
        ([(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)], (1, 3, 1, 4)),
        # the centre cell alone is interior to its row and to its column
        ([(2, 2)], (-1, 1, -1, 1)),
    ],
    ids=["ends", "interior"],
)
def test_asm_strong_pair_on_explicit_subsets(cells, pairs):
    ev = eval_strong_pair(asm_instance(3), SubsetMask.from_cells(3, 3, cells))
    assert (ev.p1, ev.b1, ev.p2, ev.b2) == pairs


def _maximal_runs(cells, m, n, horizontal):
    """(line, start, end) of every maximal run of the subset, scanned line by line."""
    runs = []
    lines, length = (m, n) if horizontal else (n, m)
    for line in range(1, lines + 1):
        members = [((line, pos) if horizontal else (pos, line)) in cells for pos in range(1, length + 1)]
        pos = 0
        while pos < length:
            if members[pos]:
                start = pos
                while pos + 1 < length and members[pos + 1]:
                    pos += 1
                runs.append((line, start + 1, pos + 1))
            pos += 1
    return runs


def _reference_bound(inst, cells, horizontal, least):
    """p (``least``) or b of the subset along rows or columns: one elementary pair per maximal run."""
    low, high = (inst.phi1, inst.gamma1) if horizontal else (inst.phi2, inst.gamma2)
    at_end, before = (low, high) if least else (high, low)
    total = fin(0)
    for line, h, k in _maximal_runs(cells, inst.m, inst.n, horizontal):
        cell = (lambda pos: (line, pos)) if horizontal else (lambda pos: (pos, line))
        total = total + at_end.at(*cell(k)) - (before.at(*cell(h - 1)) if h > 1 else fin(0))
    return total


def _reference_sum(table, cells):
    return functools.reduce(operator.add, (table.at(*c) for c in sorted(cells)), fin(0))


def _reference_record(inst, x1, x2, name):
    """(lhs, rhs) of the named inequality, cell by cell, computing only its own terms."""

    def bound(horizontal, least):
        # p1 and b1 come from X1's rows, p2 and b2 from X2's columns
        return _reference_bound(inst, x1 if horizontal else x2, horizontal, least)

    grid = {(i, j) for i in range(1, inst.m + 1) for j in range(1, inst.n + 1)}
    neither, both = grid - x1 - x2, x1 & x2
    if name == "gen1a":
        return (bound(True, True) + _reference_sum(inst.f, x2 - x1),
                bound(False, False) + _reference_sum(inst.g, x1 - x2))
    if name == "gen1b":
        return (bound(False, True) + _reference_sum(inst.f, x1 - x2),
                bound(True, False) + _reference_sum(inst.g, x2 - x1))
    if name == "gen1alfa":
        return inst.alpha, (bound(True, False) + bound(False, False) + _reference_sum(inst.g, neither)
                            - _reference_sum(inst.f, both))
    return (bound(True, True) + bound(False, True) + _reference_sum(inst.f, neither)
            - _reference_sum(inst.g, both)), inst.beta


def _outcome(call):
    """What a call returns, or "clash" when it raises InfinityClash."""
    try:
        return call()
    except InfinityClash:
        return "clash"


def _unvalidated_instance(rng, m, n, inf_rate):
    """Tables of ints and both infinities in any cell, so sums of opposite infinities occur."""

    def table():
        cells = [rng.choice([NEG_INF, POS_INF]) if rng.random() < inf_rate else fin(rng.randint(-9, 9))
                 for _ in range(m * n)]
        return ExtMatrix.from_rows([cells[k : k + n] for k in range(0, m * n, n)])

    def total():
        return rng.choice([NEG_INF, POS_INF, fin(rng.randint(-20, 20))])

    return PbmInstance(m, n, *(table() for _ in range(6)), total(), total())


def _subsets(rng, m, n):
    """Empty, full, sparse, dense, complement-shaped and single-line subsets of the grid."""
    grid = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
    sparse = {c for c in grid if rng.random() < 0.1}
    row, col = rng.randint(1, m), rng.randint(1, n)
    return [
        set(),
        set(grid),
        sparse,
        {c for c in grid if rng.random() < 0.5},
        set(grid) - sparse,
        set(grid) - {rng.choice(grid)},
        {c for c in grid if c[0] == row},
        {c for c in grid if c[1] == col},
    ]


class TestAgainstPerCellReference:
    """The cell-set evaluator against sums read cell by cell off maximal runs.

    Unlike the oracle's pair tables, which stop at 12 cells, the grids run
    to 12 x 12, and the tables hold both infinities anywhere, so that an
    evaluation may raise InfinityClash; it must raise exactly when the
    reference does.
    """

    @pytest.mark.parametrize("inf_rate", [0.0, 0.1, 0.4])
    def test_records_match(self, inf_rate):
        rng = random.Random(f"per-cell:{inf_rate}")
        outcomes = set()
        for _ in range(40):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            inst = _unvalidated_instance(rng, m, n, inf_rate)
            subsets = _subsets(rng, m, n)
            for _ in range(12):
                x1, x2 = rng.choice(subsets), rng.choice(subsets)
                c1 = {(i - 1) * n + j - 1 for i, j in x1}
                c2 = {(i - 1) * n + j - 1 for i, j in x2}
                records = []
                for name in INEQUALITY_NAMES:
                    want = _outcome(lambda: _reference_record(inst, x1, x2, name))
                    got = _outcome(lambda: pair_record(inst, c1, c2, name))
                    assert got == want if want == "clash" else (got.name, got.lhs, got.rhs) == (name, *want)
                    outcomes.add(want == "clash")
                    records.append(got)
                # condition_values evaluates all four, so it raises when any one does
                masks = [SubsetMask.from_cells(m, n, x) for x in (x1, x2)]
                got = _outcome(lambda: condition_values(inst, *masks))
                assert got == "clash" if "clash" in records else got.records() == tuple(records)
                # p1, b1, p2, b2 of X1, evaluated together
                want = [_outcome(lambda: _reference_bound(inst, x1, horizontal, least))
                        for horizontal in (True, False) for least in (True, False)]
                got = _outcome(lambda: eval_strong_pair(inst, masks[0]))
                assert got == "clash" if "clash" in want else [got.p1, got.b1, got.p2, got.b2] == want
                assert _outcome(lambda: mask_sum(inst.g, masks[0])) == _outcome(
                    lambda: _reference_sum(inst.g, x1))
        # with infinities in the tables, some evaluations clash and some do not
        assert outcomes == ({False} if inf_rate == 0 else {False, True})
