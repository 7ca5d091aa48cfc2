"""Onion curve (hierarchical adaptation) — the fourth curve family.

Xu, Nguyen & Tirthapura's onion curve ("Onion Curve: A Space Filling Curve
with Near-Optimal Clustering", PAPERS.md) traverses the universe in
concentric shells, peeling the boundary loop of the cube before recursing
inward, and achieves near-optimal clustering for cube queries.  The true
onion curve cannot be used by Squid directly: concentric shells cut across
subcube boundaries, so indices inside a level-ℓ subcube do **not** share
their first ``ℓ·dims`` bits — and that *digital causality* property is
exactly what the prefix-routed overlay and the recursive cluster refinement
of the paper (Figures 6-7) require of a mapping.

This module therefore implements a *hierarchical* adaptation that keeps the
onion idea — every subcube is traversed as a closed peel loop around its
shell — while staying a recursive, prefix-causal curve behind the
:class:`~repro.sfc.base.SpaceFillingCurve` ABC:

* Within a subcube in state ``(anchor, axis)`` the ``2**dims`` children are
  visited along the binary-reflected Gray cycle (a Hamiltonian *loop* on the
  corner hypercube — the shell of the subcube), started at the ``anchor``
  corner and rotated by ``axis``: ``label(r) = anchor ^ rol(gray(r), axis)``.
* Each child's own loop is anchored at the corner *facing the predecessor
  child* (``anchor(r) = label(r-1)``, the onion analogue of peeling toward
  where the previous peel ended), and its cut axis advances by
  ``1 + trailing_set_bits(r)`` so successive peels rotate through all axes.

The state space is finite (at most ``2**dims · dims`` reachable states), so
the refinement kernel, the dense transition table of the array-resident
resolver (``refine_vec.CurveTable``) and both query engines work unchanged.  Measured with ``sfc/analysis.py``, the
adaptation's mean cluster count sits strictly between Hilbert and Gray in
2-D and beats Gray in 3-D — the ablation ordering asserted by the tests is
``hilbert <= onion <= zorder``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.sfc.base import CurveState, SpaceFillingCurve
from repro.util.bits import bit_mask, gray_encode, rotate_left, trailing_set_bits

__all__ = ["OnionCurve", "OnionState"]


class OnionState(tuple):
    """Immutable ``(anchor, axis)`` pair describing a subcube's peel frame."""

    __slots__ = ()

    def __new__(cls, anchor: int, axis: int) -> "OnionState":
        return super().__new__(cls, (anchor, axis))

    @property
    def anchor(self) -> int:
        return self[0]

    @property
    def axis(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OnionState(anchor={self[0]:#b}, axis={self[1]})"


def _peel(anchor: int, axis: int, dims: int) -> tuple[tuple[int, OnionState], ...]:
    """Children of a subcube with state ``(anchor, axis)``, in curve order."""
    n_children = 1 << dims
    labels = [
        anchor ^ rotate_left(gray_encode(rank), axis, dims)
        for rank in range(n_children)
    ]
    rows = []
    for rank in range(n_children):
        child_anchor = anchor if rank == 0 else labels[rank - 1]
        child_axis = (axis + 1 + trailing_set_bits(rank)) % dims
        rows.append((labels[rank], OnionState(child_anchor, child_axis)))
    return tuple(rows)


@lru_cache(maxsize=16)
def _transition_table(
    dims: int,
) -> dict[tuple[int, int], tuple[tuple[int, OnionState], ...]]:
    """Child enumerations for every reachable ``(anchor, axis)`` state (BFS)."""
    table: dict[tuple[int, int], tuple[tuple[int, OnionState], ...]] = {}
    pending: list[tuple[int, int]] = [(0, 0)]
    while pending:
        state = pending.pop()
        if state in table:
            continue
        rows = _peel(state[0], state[1], dims)
        table[state] = rows
        for _, child in rows:
            if tuple(child) not in table:
                pending.append(tuple(child))
    return table


@lru_cache(maxsize=16)
def _dense_tables(dims: int) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Integer-indexed transition tables for the NumPy bulk kernels.

    Returns ``(state_ids, label_of, rank_of, next_of)`` where for state id
    ``s``: ``label_of[s, rank]`` is the child's coordinate label,
    ``rank_of[s, label]`` the inverse mapping, and ``next_of[s, rank]`` the
    child's state id.
    """
    table = _transition_table(dims)
    state_ids = {state: i for i, state in enumerate(sorted(table))}
    n_states, n_children = len(state_ids), 1 << dims
    label_of = np.zeros((n_states, n_children), dtype=np.int64)
    rank_of = np.zeros((n_states, n_children), dtype=np.int64)
    next_of = np.zeros((n_states, n_children), dtype=np.int64)
    for state, rows in table.items():
        s = state_ids[state]
        for rank, (label, child) in enumerate(rows):
            label_of[s, rank] = label
            rank_of[s, label] = rank
            next_of[s, rank] = state_ids[tuple(child)]
    return state_ids, label_of, rank_of, next_of


class OnionCurve(SpaceFillingCurve):
    """Hierarchical onion (peel-loop) curve over ``[0, 2**order)**dims``."""

    name = "onion"

    def __init__(self, dims: int, order: int) -> None:
        super().__init__(dims, order)
        self._dim_mask = bit_mask(dims)
        self._table = _transition_table(dims)
        # Per-state inverse mapping label -> rank for scalar encode.
        self._rank_of = {
            state: {label: rank for rank, (label, _) in enumerate(rows)}
            for state, rows in self._table.items()
        }

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def encode(self, point: Sequence[int]) -> int:
        pt = self._check_point(point)
        dims, order = self.dims, self.order
        state = (0, 0)
        index = 0
        for level in range(order - 1, -1, -1):
            label = 0
            for j in range(dims):
                label |= ((pt[j] >> level) & 1) << j
            rank = self._rank_of[state][label]
            index = (index << dims) | rank
            state = tuple(self._table[state][rank][1])
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        index = self._check_index(index)
        dims, order = self.dims, self.order
        state = (0, 0)
        coords = [0] * dims
        for level in range(order - 1, -1, -1):
            rank = (index >> (level * dims)) & self._dim_mask
            label, child = self._table[state][rank]
            for j in range(dims):
                coords[j] |= ((label >> j) & 1) << level
            state = tuple(child)
        return tuple(coords)

    def encode_many(self, points: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """Vectorized table-walk encode for indices that fit in 63 bits."""
        if not self.fits_int64:
            return super().encode_many(points)
        points = np.asarray(points, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.dims:
            return super().encode_many(points)
        _, _, rank_of, next_of = _dense_tables(self.dims)
        states = np.zeros(points.shape[0], dtype=np.int64)
        index = np.zeros(points.shape[0], dtype=np.int64)
        for level in range(self.order - 1, -1, -1):
            label = np.zeros(points.shape[0], dtype=np.int64)
            for j in range(self.dims):
                label |= ((points[:, j] >> level) & 1) << j
            rank = rank_of[states, label]
            index = (index << self.dims) | rank
            states = next_of[states, rank]
        return index

    def decode_many(self, indices: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """Vectorized table-walk decode for indices that fit in 63 bits."""
        if not self.fits_int64:
            return super().decode_many(indices)
        indices = np.asarray(indices, dtype=np.int64).ravel()
        _, label_of, _, next_of = _dense_tables(self.dims)
        states = np.zeros(indices.shape[0], dtype=np.int64)
        coords = np.zeros((indices.shape[0], self.dims), dtype=np.int64)
        for level in range(self.order - 1, -1, -1):
            rank = (indices >> (level * self.dims)) & self._dim_mask
            label = label_of[states, rank]
            for j in range(self.dims):
                coords[:, j] |= ((label >> j) & 1) << level
            states = next_of[states, rank]
        return coords

    # ------------------------------------------------------------------
    # Recursive structure
    # ------------------------------------------------------------------
    def root_state(self) -> CurveState:
        return OnionState(0, 0)

    def children(self, state: CurveState) -> tuple[tuple[int, CurveState], ...]:
        anchor, axis = state  # type: ignore[misc]
        return self._table[(anchor, axis)]
