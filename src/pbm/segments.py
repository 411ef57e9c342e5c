"""Maximal segments of a cell subset.

A horizontal segment is a maximal run of consecutive chosen cells inside one
row; vertical segments are the same inside one column.

``maximal_segments`` serves only the segment-family witness that
``asmkit.compatible_asm`` returns; ``strongpair`` reads the same runs off
sets of cell indices without building them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import SubsetMask

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "Segment",
    "maximal_segments",
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
