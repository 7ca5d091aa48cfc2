"""Readable reference for one refinement step (test-only).

This is the scalar ``_refine_cluster`` the package shipped before the
table-driven kernel replaced it, moved here verbatim: per child a
``curve.children`` walk, ``index_range_of_cell``, coordinate bounds and
``Region.classify_cell``, through the public (validating) constructors.
The kernel in :mod:`repro.sfc.clusters` must return structurally identical
clusters for every curve family, geometry, region and ``min_index``
(``tests/sfc/test_refine_kernel.py``).
"""

from __future__ import annotations

from repro.errors import SFCError
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.clusters import Cell, Cluster, FullRange, Piece
from repro.sfc.regions import Containment, Region


def reference_refine_cluster(
    curve: SpaceFillingCurve,
    cluster: Cluster,
    region: Region,
    min_index: int = 0,
) -> list[Cluster]:
    runs: list[Cluster] = []
    current: list[Piece] = []
    next_level = cluster.level + 1

    def append_piece(piece: Piece) -> None:
        # Coalesce adjacent FullRanges to keep piece lists short.
        if current and isinstance(piece, FullRange) and isinstance(current[-1], FullRange):
            last = current[-1]
            if last.high + 1 == piece.low:
                current[-1] = FullRange(last.low, piece.high)
                return
        current.append(piece)

    def flush() -> None:
        if current:
            runs.append(Cluster(level=next_level, pieces=tuple(current)))
            current.clear()

    for piece in cluster.pieces:
        if isinstance(piece, FullRange):
            if piece.high < min_index:
                flush()
                continue
            low = max(piece.low, min_index)
            append_piece(FullRange(low, piece.high))
            continue
        # Partial cell: expand children in curve order.
        if piece.level >= curve.order:
            raise SFCError("cannot refine a cell at maximum order")
        cell_range_span = curve.order - next_level
        for rank, (label, child_state) in enumerate(curve.children(piece.state)):
            child_coords = tuple(
                (piece.coords[j] << 1) | ((label >> j) & 1) for j in range(curve.dims)
            )
            child_prefix = (piece.prefix << curve.dims) | rank
            child_low, child_high = curve.index_range_of_cell(next_level, child_prefix)
            if child_high < min_index:
                flush()
                continue
            span = 1 << cell_range_span
            lows = tuple(c * span for c in child_coords)
            highs = tuple(c * span + span - 1 for c in child_coords)
            relation = region.classify_cell(lows, highs)
            if relation is Containment.DISJOINT:
                flush()
            elif relation is Containment.FULL:
                append_piece(FullRange(max(child_low, min_index), child_high))
            else:
                child = Cell(
                    level=next_level,
                    prefix=child_prefix,
                    coords=child_coords,
                    state=child_state,
                )
                append_piece(child)
    flush()
    return runs
