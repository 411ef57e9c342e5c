"""Maximal segments of a cell subset, with positional classification.

A horizontal segment is a maximal run of consecutive chosen cells inside one
row; vertical segments are the same inside one column.  Segments are
classified by where they sit in their line:

* full: the segment covers the whole line;
* prefix: it starts at position 1 but does not reach the end;
* suffix: it ends at the last position but does not start at 1;
* interior: neither endpoint touches the line's ends.

A one-cell subset of a length-1 line covers the whole line and counts as
full.  The counts sigma = se + pr + su + fu always partition the segments.

``maximal_segments`` serves ``segment_stats`` and the segment-family
witness that ``asmkit.compatible_asm`` returns; ``strongpair`` reads the
same runs off sets of cell indices without building them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SubsetMask

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "Segment",
    "SegmentStats",
    "maximal_segments",
    "segment_stats",
]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True, slots=True, order=True)
class Segment:
    """A maximal run [start, end] of chosen cells in row/column ``line``."""

    orientation: str
    line: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.orientation not in (HORIZONTAL, VERTICAL):
            raise ValueError(f"bad orientation {self.orientation!r}")
        if not (1 <= self.start <= self.end):
            raise ValueError(f"bad segment span [{self.start}, {self.end}]")

    def cells(self) -> list[tuple[int, int]]:
        if self.orientation == HORIZONTAL:
            return [(self.line, c) for c in range(self.start, self.end + 1)]
        return [(r, self.line) for r in range(self.start, self.end + 1)]

    def classify(self, line_length: int) -> str:
        """One of "full", "prefix", "suffix", "interior"."""
        at_start = self.start == 1
        at_end = self.end == line_length
        if at_start and at_end:
            return "full"
        if at_start:
            return "prefix"
        if at_end:
            return "suffix"
        return "interior"


def maximal_segments(mask: SubsetMask, orientation: str) -> list[Segment]:
    """All maximal segments of the subset, ordered by (line, start).

    One sort groups the cells by line, in order along each line, so a call
    costs O(|X| log |X|) however many lines the grid has.
    """
    if orientation not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"bad orientation {orientation!r}")
    cells = mask.cells if orientation == HORIZONTAL else ((j, i) for i, j in mask.cells)
    runs: list[list[int]] = []
    for line, pos in sorted(cells):
        if runs and runs[-1][0] == line and runs[-1][2] + 1 == pos:
            runs[-1][2] = pos
        else:
            runs.append([line, pos, pos])
    return [Segment(orientation, line, start, end) for line, start, end in runs]


@dataclass(frozen=True, slots=True)
class SegmentStats:
    """Segment counts of a subset, split by orientation and position.

    sigma1/sigma2 count all horizontal/vertical segments; the se/pr/su/fu
    fields count interior, prefix, suffix, and full segments.  In each
    orientation sigma = se + pr + su + fu.

    These counts are the paper's strong pair in its alternating sign
    matrix case.  Under the ASM windows (every prefix sum in [0, 1], every
    line sum 1) an interior segment's elementary pair is (-1, 1), a
    prefix's or a suffix's (0, 1) and a full line's (1, 1), so
    p1(X) = fu1 - se1 and b1(X) = sigma1, and likewise p2 and b2 by
    columns; ``tests/test_strongpair.py`` checks this against
    ``eval_strong_pair``.
    """

    sigma1: int
    sigma2: int
    se1: int
    pr1: int
    su1: int
    fu1: int
    se2: int
    pr2: int
    su2: int
    fu2: int


def segment_stats(mask: SubsetMask) -> SegmentStats:
    """Count the subset's maximal segments by orientation and position.

    The counts give the ASM case of the paper's strong pair, p = fu - se
    and b = sigma per orientation (see ``SegmentStats``).
    """
    counts = {}
    for orientation, line_length in ((HORIZONTAL, mask.n), (VERTICAL, mask.m)):
        tally = {"interior": 0, "prefix": 0, "suffix": 0, "full": 0}
        segs = maximal_segments(mask, orientation)
        for seg in segs:
            tally[seg.classify(line_length)] += 1
        counts[orientation] = (len(segs), tally)
    s1, t1 = counts[HORIZONTAL]
    s2, t2 = counts[VERTICAL]
    return SegmentStats(
        sigma1=s1,
        sigma2=s2,
        se1=t1["interior"],
        pr1=t1["prefix"],
        su1=t1["suffix"],
        fu1=t1["full"],
        se2=t2["interior"],
        pr2=t2["prefix"],
        su2=t2["suffix"],
        fu2=t2["full"],
    )
