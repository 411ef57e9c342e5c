"""Maximal segments and their positional statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pbm.core import SubsetMask
from pbm.segments import (
    HORIZONTAL,
    VERTICAL,
    Segment,
    maximal_segments,
    segment_stats,
)


def test_row_splits_into_separated_runs():
    mask = SubsetMask.from_cells(1, 4, [(1, 1), (1, 2), (1, 4)])
    segs = maximal_segments(mask, HORIZONTAL)
    assert [(s.start, s.end) for s in segs] == [(1, 2), (4, 4)]
    assert [s.classify(4) for s in segs] == ["prefix", "suffix"]


def test_vertical_segments_ordered_by_column():
    mask = SubsetMask.from_cells(3, 2, [(1, 1), (2, 1), (3, 2), (1, 2)])
    segs = maximal_segments(mask, VERTICAL)
    assert [(s.line, s.start, s.end) for s in segs] == [(1, 1, 2), (2, 1, 1), (2, 3, 3)]


def test_classification_cases():
    assert Segment(HORIZONTAL, 1, 1, 4).classify(4) == "full"
    assert Segment(HORIZONTAL, 1, 1, 2).classify(4) == "prefix"
    assert Segment(HORIZONTAL, 1, 3, 4).classify(4) == "suffix"
    assert Segment(HORIZONTAL, 1, 2, 3).classify(4) == "interior"
    # a single cell in a length-1 line covers the whole line
    assert Segment(VERTICAL, 1, 1, 1).classify(1) == "full"


def test_segment_cells():
    assert Segment(HORIZONTAL, 2, 1, 3).cells() == [(2, 1), (2, 2), (2, 3)]
    assert Segment(VERTICAL, 3, 2, 3).cells() == [(2, 3), (3, 3)]


def test_bad_segment_rejected():
    with pytest.raises(ValueError):
        Segment(HORIZONTAL, 1, 3, 2)
    with pytest.raises(ValueError):
        Segment("diagonal", 1, 1, 1)
    with pytest.raises(ValueError):
        maximal_segments(SubsetMask.empty(1, 1), "diagonal")


def test_stats_on_explicit_subset():
    mask = SubsetMask.from_cells(2, 3, [(1, 1), (1, 2), (2, 2), (2, 3)])
    stats = segment_stats(mask)
    assert stats.sigma1 == 2 and stats.pr1 == 1 and stats.su1 == 1
    assert stats.se1 == 0 and stats.fu1 == 0
    # columns: col1 [1,1] prefix, col2 [1,2] full, col3 [2,2] suffix
    assert stats.sigma2 == 3
    assert (stats.pr2, stats.fu2, stats.su2, stats.se2) == (1, 1, 1, 0)


cells_strategy = st.sets(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=16
)


@given(cells_strategy)
def test_counts_partition(cells):
    mask = SubsetMask.from_cells(4, 4, cells)
    stats = segment_stats(mask)
    assert stats.sigma1 == stats.se1 + stats.pr1 + stats.su1 + stats.fu1
    assert stats.sigma2 == stats.se2 + stats.pr2 + stats.su2 + stats.fu2


@given(cells_strategy)
def test_segments_cover_mask_exactly(cells):
    mask = SubsetMask.from_cells(4, 4, cells)
    for orientation in (HORIZONTAL, VERTICAL):
        covered = [c for s in maximal_segments(mask, orientation) for c in s.cells()]
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
