"""Abstract interface for space-filling curves.

A curve maps points of the d-dimensional discrete cube ``[0, 2**order)**dims``
to 1-d indices in ``[0, 2**(dims*order))`` and back.  Beyond plain
encode/decode, curves expose their *recursive structure* through an opaque
per-subcube ``state`` and a :meth:`SpaceFillingCurve.children` enumeration:
given the state of a subcube at refinement level ℓ, ``children`` yields the
``2**dims`` child subcells *in curve order* together with their states.  The
cluster machinery (:mod:`repro.sfc.clusters`) and the distributed query engine
(:mod:`repro.core.engine`) are written against this interface only, so any
curve (Hilbert, Z-order, ...) plugs into the full system.

Conventions
-----------
* A *coordinate label* is a ``dims``-bit integer whose bit ``j`` is the next
  (more significant → less significant as refinement deepens) bit of
  dimension ``j``.
* Curve states must be hashable and immutable.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Sequence

import numpy as np

from repro.errors import (
    CoordinateRangeError,
    DimensionMismatchError,
    IndexRangeError,
)

__all__ = ["SpaceFillingCurve", "CurveState"]

CurveState = Hashable


class SpaceFillingCurve(ABC):
    """A discrete space-filling curve over ``[0, 2**order)**dims``.

    Parameters
    ----------
    dims:
        Dimensionality ``d`` of the keyword space (≥ 1).
    order:
        Bits per dimension ``k``; the curve has ``2**(d*k)`` cells.
    """

    #: Short machine-readable curve family name (e.g. ``"hilbert"``).
    name: str = "abstract"

    def __init__(self, dims: int, order: int) -> None:
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        self.dims = dims
        self.order = order
        #: Total index bits ``d*k``; Chord identifiers share this width.
        self.index_bits = dims * order
        #: Number of cells on the curve, ``2**(d*k)``.
        self.size = 1 << self.index_bits
        #: Cells per side of the cube, ``2**k``.
        self.side = 1 << order

    @property
    def fits_int64(self) -> bool:
        """True when every curve index fits a NumPy ``int64``.

        This is the single gate shared by all vectorized fast paths
        (bulk encode/decode and the array-resident resolver of
        :mod:`repro.sfc.refine_vec`); wider curves fall back to the exact
        implementations on Python ints.
        """
        return self.index_bits <= 63

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_point(self, point: Sequence[int]) -> tuple[int, ...]:
        pt = tuple(int(c) for c in point)
        if len(pt) != self.dims:
            raise DimensionMismatchError(self.dims, len(pt))
        for coord in pt:
            if not 0 <= coord < self.side:
                raise CoordinateRangeError(
                    f"coordinate {coord} outside [0, {self.side}) for order {self.order}"
                )
        return pt

    def _check_index(self, index: int) -> int:
        index = int(index)
        if not 0 <= index < self.size:
            raise IndexRangeError(
                f"index {index} outside [0, {self.size}) for {self.dims}D order {self.order}"
            )
        return index

    # ------------------------------------------------------------------
    # Core mapping
    # ------------------------------------------------------------------
    @abstractmethod
    def encode(self, point: Sequence[int]) -> int:
        """Map a d-dimensional point to its 1-d curve index."""

    @abstractmethod
    def decode(self, index: int) -> tuple[int, ...]:
        """Map a 1-d curve index back to its d-dimensional point."""

    def encode_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode` over an ``(N, dims)`` integer array.

        The base implementation is a Python loop; subclasses override with a
        NumPy fast path where the index fits in 64 bits.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.dims:
            raise DimensionMismatchError(self.dims, points.shape[-1] if points.ndim else 0)
        out = np.empty(points.shape[0], dtype=object)
        for i, row in enumerate(points):
            out[i] = self.encode(row)
        if self.fits_int64:
            return out.astype(np.int64)
        return out

    def decode_many(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`decode`; returns an ``(N, dims)`` array.

        Coordinates fit ``int64`` whenever ``order <= 63`` (``side - 1 <
        2**63``) even if the *index* does not; a 1-D curve of order ≥ 64 is
        the one geometry whose coordinates overflow, so it falls back to an
        object array of Python ints.
        """
        indices = np.asarray(indices).ravel()
        dtype = np.int64 if self.order <= 63 else object
        out = np.empty((indices.shape[0], self.dims), dtype=dtype)
        for i, index in enumerate(indices):
            out[i] = self.decode(int(index))
        return out

    # ------------------------------------------------------------------
    # Recursive structure
    # ------------------------------------------------------------------
    @abstractmethod
    def root_state(self) -> CurveState:
        """State of the whole cube (refinement level 0)."""

    @abstractmethod
    def children(self, state: CurveState) -> tuple[tuple[int, CurveState], ...]:
        """Enumerate the ``2**dims`` children of a subcube in curve order.

        Returns a tuple of ``(label, child_state)`` pairs where ``label`` is
        the coordinate label of the child within its parent (bit ``j`` = the
        bit added to dimension ``j``) and ``child_state`` drives the next
        refinement level.  The position of a pair in the tuple is the child's
        rank along the curve, i.e. it contributes the next ``dims`` bits of
        the curve index.
        """

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def index_range_of_cell(self, level: int, h_prefix: int) -> tuple[int, int]:
        """Inclusive 1-d index range covered by a level-``level`` cell.

        ``h_prefix`` is the cell's curve-index prefix: the ``level * dims``
        high bits of every index inside the cell (the paper's *digital
        causality* property).
        """
        if not 0 <= level <= self.order:
            raise ValueError(f"level must be in [0, {self.order}], got {level}")
        span_bits = (self.order - level) * self.dims
        low = h_prefix << span_bits
        high = ((h_prefix + 1) << span_bits) - 1
        return low, high

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dims={self.dims}, order={self.order})"
