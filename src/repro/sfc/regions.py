"""Query regions in the discrete d-dimensional keyword space.

A flexible query (keywords, partial keywords, wildcards, ranges — paper §3.3)
maps to an axis-aligned box: each dimension contributes one inclusive integer
interval of coordinates.  Disjunctive queries map to a union of boxes, so the
general :class:`Region` is a box union.  The cluster machinery only needs one
predicate from a region: how a subcube *cell* of the curve relates to it
(disjoint / partially intersecting / fully contained).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DimensionMismatchError

__all__ = ["Containment", "Interval", "Box", "Region", "full_region"]


class Containment(enum.Enum):
    """Relation of a cell to a region."""

    DISJOINT = 0
    PARTIAL = 1
    FULL = 2


@dataclass(frozen=True)
class Interval:
    """Inclusive integer interval ``[low, high]`` on one dimension."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"empty interval [{self.low}, {self.high}]")

    def contains(self, value: int) -> bool:
        return self.low <= value <= self.high

    def contains_interval(self, low: int, high: int) -> bool:
        """True if ``[low, high]`` lies entirely inside this interval."""
        return self.low <= low and high <= self.high

    def overlaps(self, low: int, high: int) -> bool:
        """True if ``[low, high]`` intersects this interval."""
        return not (high < self.low or self.high < low)

    @property
    def width(self) -> int:
        return self.high - self.low + 1


@dataclass(frozen=True)
class Box:
    """Axis-aligned box: one :class:`Interval` per dimension."""

    intervals: tuple[Interval, ...]

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[int, int]]) -> "Box":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def dims(self) -> int:
        return len(self.intervals)

    def contains_point(self, point: Sequence[int]) -> bool:
        if len(point) != self.dims:
            raise DimensionMismatchError(self.dims, len(point))
        return all(iv.contains(int(c)) for iv, c in zip(self.intervals, point))

    def classify_cell(
        self, cell_lows: Sequence[int], cell_highs: Sequence[int]
    ) -> Containment:
        """Relation of the cell ``[cell_lows, cell_highs]`` to this box."""
        full = True
        for iv, lo, hi in zip(self.intervals, cell_lows, cell_highs):
            if not iv.overlaps(lo, hi):
                return Containment.DISJOINT
            if not iv.contains_interval(lo, hi):
                full = False
        return Containment.FULL if full else Containment.PARTIAL

    def classify_cells(self, cell_lows: np.ndarray, cell_highs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify_cell` over ``(N, dims)`` bound arrays.

        Returns an ``(N,)`` ``int8`` array of :class:`Containment` values.
        """
        lo = np.fromiter((iv.low for iv in self.intervals), dtype=np.int64, count=self.dims)
        hi = np.fromiter((iv.high for iv in self.intervals), dtype=np.int64, count=self.dims)
        overlap = np.logical_and(cell_highs >= lo, cell_lows <= hi).all(axis=1)
        full = np.logical_and(cell_lows >= lo, cell_highs <= hi).all(axis=1)
        codes = overlap.astype(np.int8)
        codes[full] = Containment.FULL.value
        return codes

    @property
    def volume(self) -> int:
        """Number of lattice points inside the box."""
        vol = 1
        for iv in self.intervals:
            vol *= iv.width
        return vol


@dataclass(frozen=True)
class Region:
    """Union of axis-aligned boxes, all with the same dimensionality."""

    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        if not self.boxes:
            raise ValueError("a region needs at least one box")
        dims = self.boxes[0].dims
        for box in self.boxes:
            if box.dims != dims:
                raise DimensionMismatchError(dims, box.dims)

    @classmethod
    def from_box(cls, box: Box) -> "Region":
        return cls((box,))

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[int, int]]) -> "Region":
        return cls((Box.from_bounds(bounds),))

    @property
    def dims(self) -> int:
        return self.boxes[0].dims

    @cached_property
    def box_bounds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per box, its ``(low, high)`` pair per dimension — compiled once.

        The flat form the refinement kernel
        (:func:`repro.sfc.clusters.refine_cluster`) compares against, so a
        visit does not walk ``Box`` / ``Interval`` objects per cell.
        """
        return tuple(
            tuple((iv.low, iv.high) for iv in box.intervals) for box in self.boxes
        )

    def contains_point(self, point: Sequence[int]) -> bool:
        return any(box.contains_point(point) for box in self.boxes)

    def classify_cell(
        self, cell_lows: Sequence[int], cell_highs: Sequence[int]
    ) -> Containment:
        """Relation of a cell to the box union.

        A cell fully inside *any one* box is FULL; note this is conservative
        for unions (a cell covered only by several boxes jointly is reported
        PARTIAL), which is safe: PARTIAL cells are refined further, never
        dropped, so query results stay exact.
        """
        saw_overlap = False
        for box in self.boxes:
            relation = box.classify_cell(cell_lows, cell_highs)
            if relation is Containment.FULL:
                return Containment.FULL
            if relation is Containment.PARTIAL:
                saw_overlap = True
        return Containment.PARTIAL if saw_overlap else Containment.DISJOINT

    def classify_cells(self, cell_lows: np.ndarray, cell_highs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`classify_cell`: one ``int8`` code per cell row.

        Mirrors the scalar trichotomy exactly, including the conservative
        union semantics (FULL only when a *single* box contains the cell).
        This is the classification kernel of the array-resident resolver
        (:func:`repro.sfc.refine_vec.resolve_ranges_vec`).
        """
        codes = self.boxes[0].classify_cells(cell_lows, cell_highs)
        for box in self.boxes[1:]:
            np.maximum(codes, box.classify_cells(cell_lows, cell_highs), out=codes)
        return codes

    def canonical_key(self) -> tuple:
        """Hashable, order-insensitive identity of the region's geometry.

        Two regions with the same box set (in any order) share a key; used
        by the query-plan cache (:mod:`repro.core.plancache`) to recognize
        repeated queries that cover the same coordinate region.
        """
        return tuple(
            sorted(
                tuple((iv.low, iv.high) for iv in box.intervals)
                for box in self.boxes
            )
        )

    @property
    def volume_upper_bound(self) -> int:
        """Sum of box volumes (exact when boxes are disjoint)."""
        return sum(box.volume for box in self.boxes)


def full_region(dims: int, order: int) -> Region:
    """The region covering the entire ``[0, 2**order)**dims`` space."""
    side = 1 << order
    return Region.from_bounds([(0, side - 1)] * dims)
