"""Maximal segments of a cell subset."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbm.core import SubsetMask
from pbm.segments import (
    HORIZONTAL,
    VERTICAL,
    Segment,
    maximal_segments,
)


def test_row_splits_into_separated_runs():
    mask = SubsetMask.from_cells(1, 4, [(1, 1), (1, 2), (1, 4)])
    segs = maximal_segments(mask, HORIZONTAL)
    assert [(s.start, s.end) for s in segs] == [(1, 2), (4, 4)]


def test_vertical_segments_ordered_by_column():
    mask = SubsetMask.from_cells(3, 2, [(1, 1), (2, 1), (3, 2), (1, 2)])
    segs = maximal_segments(mask, VERTICAL)
    assert [(s.line, s.start, s.end) for s in segs] == [(1, 1, 2), (2, 1, 1), (2, 3, 3)]


def test_bad_segment_rejected():
    with pytest.raises(ValueError):
        Segment(HORIZONTAL, 1, 3, 2)
    with pytest.raises(ValueError):
        Segment("diagonal", 1, 1, 1)
    with pytest.raises(ValueError):
        maximal_segments(SubsetMask.empty(1, 1), "diagonal")


def test_full_mask_has_one_segment_per_line():
    mask = SubsetMask.full(3, 2)
    assert [(s.line, s.start, s.end) for s in maximal_segments(mask, HORIZONTAL)] == [
        (1, 1, 2), (2, 1, 2), (3, 1, 2),
    ]
    assert [(s.line, s.start, s.end) for s in maximal_segments(mask, VERTICAL)] == [
        (1, 1, 3), (2, 1, 3),
    ]


def test_empty_mask_has_no_segments():
    for orientation in (HORIZONTAL, VERTICAL):
        assert maximal_segments(SubsetMask.empty(3, 2), orientation) == []


cells_strategy = st.sets(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=16
)


@given(cells_strategy)
def test_segments_cover_mask_exactly(cells):
    mask = SubsetMask.from_cells(4, 4, cells)
    for orientation in (HORIZONTAL, VERTICAL):
        covered = [
            (s.line, pos) if orientation == HORIZONTAL else (pos, s.line)
            for s in maximal_segments(mask, orientation)
            for pos in range(s.start, s.end + 1)
        ]
        assert sorted(covered) == mask.sorted_cells()
        assert len(covered) == len(set(covered))


@given(cells_strategy)
def test_segments_are_maximal(cells):
    mask = SubsetMask.from_cells(4, 4, cells)
    for seg in maximal_segments(mask, HORIZONTAL):
        assert (seg.line, seg.start - 1) not in mask
        assert (seg.line, seg.end + 1) not in mask
    for seg in maximal_segments(mask, VERTICAL):
        assert (seg.start - 1, seg.line) not in mask
        assert (seg.end + 1, seg.line) not in mask


@given(cells_strategy)
def test_segments_match_checked_construction(cells):
    # maximal_segments' segments must equal, hash and sort like ones built
    # from their fields
    mask = SubsetMask.from_cells(4, 4, cells)
    for orientation in (HORIZONTAL, VERTICAL):
        segs = maximal_segments(mask, orientation)
        checked = [Segment(s.orientation, s.line, s.start, s.end) for s in segs]
        assert segs == checked
        assert list(map(hash, segs)) == list(map(hash, checked))
        assert sorted(segs) == sorted(checked) == segs
