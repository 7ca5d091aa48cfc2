"""Hilbert space-filling curve for arbitrary dimension and order.

The implementation follows the entry-point/direction state-machine
formulation of the compact-Hilbert-index literature (Hamilton's technical
report CS-2006-07, building on Butz and Lawder): a subcube at refinement
level ℓ is characterised by a state ``(e, d)`` where ``e`` is the *entry
vertex* (a ``dims``-bit corner label) and ``d`` the *intra-subcube
direction*.  The transform

    T_{e,d}(b)      = ror(b ^ e, d + 1)
    T^{-1}_{e,d}(b) = rol(b, d + 1) ^ e

maps a child's coordinate label to its rank along the curve (via the Gray
code) and back.  The same machinery yields :meth:`HilbertCurve.children`,
the curve-ordered child enumeration used by the recursive cluster
refinement of the paper (its Figures 6-7).

The curve produced here satisfies the classical Hilbert properties, all of
which are property-tested in ``tests/sfc``:

* bijectivity between points and indices,
* *adjacency*: consecutive indices are unit L1 distance apart,
* *digital causality*: all indices in a level-ℓ subcube share their first
  ``ℓ·dims`` bits,
* locality (nearby indices → nearby points).
"""

from __future__ import annotations

from functools import lru_cache
from time import perf_counter
from typing import Sequence

from repro.obs import profile as obs_profile
from repro.sfc.base import CurveState, SpaceFillingCurve
from repro.util.bits import (
    bit_mask,
    gray_decode,
    gray_encode,
    rotate_left,
    rotate_right,
    trailing_set_bits,
)

__all__ = ["HilbertCurve", "HilbertState"]


class HilbertState(tuple):
    """Immutable ``(entry, direction)`` pair describing a subcube's frame."""

    __slots__ = ()

    def __new__(cls, entry: int, direction: int) -> "HilbertState":
        return super().__new__(cls, (entry, direction))

    def __getnewargs__(self) -> tuple[int, int]:
        # Pickle rebuilds the pair through ``__new__``'s two arguments.
        return tuple(self)

    @property
    def entry(self) -> int:
        return self[0]

    @property
    def direction(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HilbertState(entry={self[0]:#b}, direction={self[1]})"


def _entry_point(rank: int) -> int:
    """Entry vertex ``e(rank)`` of the rank-th subcube along the curve."""
    if rank == 0:
        return 0
    return gray_encode(2 * ((rank - 1) // 2))


def _intra_direction(rank: int, dims: int) -> int:
    """Intra-subcube direction ``d(rank)`` of the rank-th subcube."""
    if rank == 0:
        return 0
    if rank % 2 == 0:
        return trailing_set_bits(rank - 1) % dims
    return trailing_set_bits(rank) % dims


class HilbertCurve(SpaceFillingCurve):
    """Discrete Hilbert curve over ``[0, 2**order)**dims``."""

    name = "hilbert"

    def __init__(self, dims: int, order: int) -> None:
        super().__init__(dims, order)
        self._dim_mask = bit_mask(dims)
        # The child transition table depends only on dims; share it across
        # instances of the same dimensionality.
        self._table = _transition_table(dims)

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def encode(self, point: Sequence[int]) -> int:
        pt = self._check_point(point)
        dims, order = self.dims, self.order
        entry, direction = 0, 0
        index = 0
        for level in range(order - 1, -1, -1):
            # Coordinate label of the subcube containing the point at this
            # refinement level: bit j = bit `level` of coordinate j.
            label = 0
            for j in range(dims):
                label |= ((pt[j] >> level) & 1) << j
            transformed = rotate_right(label ^ entry, direction + 1, dims)
            rank = gray_decode(transformed)
            index = (index << dims) | rank
            entry, direction = _next_state(entry, direction, rank, dims)
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        index = self._check_index(index)
        dims, order = self.dims, self.order
        entry, direction = 0, 0
        coords = [0] * dims
        for level in range(order - 1, -1, -1):
            rank = (index >> (level * dims)) & self._dim_mask
            label = rotate_left(gray_encode(rank), direction + 1, dims) ^ entry
            for j in range(dims):
                coords[j] |= ((label >> j) & 1) << level
            entry, direction = _next_state(entry, direction, rank, dims)
        return tuple(coords)

    def _vectorized(self, kernel, data):
        """Run one NumPy bulk kernel, timed under ``sfc.encode_vec``.

        Shared gate-and-profile helper for :meth:`encode_many` and
        :meth:`decode_many`: callers check :attr:`fits_int64` first, and the
        fast path reports its own profile phase so ``--profile`` output
        separates vectorized from scalar encode time (``sfc.encode``).
        """
        prof = obs_profile._PROFILER
        if prof is None:
            return kernel(data, self.dims, self.order)
        start = perf_counter()
        try:
            return kernel(data, self.dims, self.order)
        finally:
            prof.record("sfc.encode_vec", perf_counter() - start)

    def encode_many(self, points):  # type: ignore[override]
        """NumPy fast path when the index fits into 63 bits."""
        if self.fits_int64:
            from repro.sfc.hilbert_vec import hilbert_encode_vec

            return self._vectorized(hilbert_encode_vec, points)
        return super().encode_many(points)

    def decode_many(self, indices):  # type: ignore[override]
        if self.fits_int64:
            from repro.sfc.hilbert_vec import hilbert_decode_vec

            return self._vectorized(hilbert_decode_vec, indices)
        return super().decode_many(indices)

    # ------------------------------------------------------------------
    # Recursive structure
    # ------------------------------------------------------------------
    def root_state(self) -> CurveState:
        return HilbertState(0, 0)

    def children(self, state: CurveState) -> tuple[tuple[int, CurveState], ...]:
        entry, direction = state  # type: ignore[misc]
        return self._table[(entry, direction)]


def _next_state(entry: int, direction: int, rank: int, dims: int) -> tuple[int, int]:
    """State of the ``rank``-th child of a subcube with state ``(entry, direction)``."""
    child_entry = entry ^ rotate_left(_entry_point(rank), direction + 1, dims)
    child_direction = (direction + _intra_direction(rank, dims) + 1) % dims
    return child_entry, child_direction


@lru_cache(maxsize=16)
def _transition_table(
    dims: int,
) -> dict[tuple[int, int], tuple[tuple[int, HilbertState], ...]]:
    """Precompute child enumerations for every reachable ``(e, d)`` state.

    For each state, children are listed in curve order; entry ``rank`` holds
    ``(label, child_state)`` where ``label`` is the child's coordinate label
    within the parent.  The table is built by BFS from the root state so only
    reachable states are materialised (there are at most ``2**dims * dims``).
    """
    table: dict[tuple[int, int], tuple[tuple[int, HilbertState], ...]] = {}
    pending = [(0, 0)]
    n_children = 1 << dims
    while pending:
        entry, direction = pending.pop()
        if (entry, direction) in table:
            continue
        rows = []
        for rank in range(n_children):
            label = rotate_left(gray_encode(rank), direction + 1, dims) ^ entry
            child = _next_state(entry, direction, rank, dims)
            rows.append((label, HilbertState(*child)))
            if child not in table:
                pending.append(child)
        table[(entry, direction)] = tuple(rows)
    return table
