"""Array-resident cluster resolution in NumPy.

One-step refinement — what a node does per visit, on a handful of cells —
is the pure-Python-int kernel of :func:`repro.sfc.clusters.refine_cluster`:
at that size, building the output ``Cell`` / ``FullRange`` objects bounds
the cost and arrays cannot help.  *Full resolution* is different: only the
final index ranges are needed, so the whole frontier of partial cells can
stay in arrays from the root to the leaves.  :func:`resolve_ranges_vec`
does exactly that:

* child labels and successor states for the whole frontier come from an
  integer-indexed transition table (:class:`CurveTable`) built once per
  curve by BFS over :meth:`~repro.sfc.base.SpaceFillingCurve.children`
  (for the Hilbert curve this is the ``(entry, direction)`` state machine;
  stateless curves collapse to a single row);
* child coordinates, prefixes, and index ranges are computed by array
  arithmetic;
* region containment is classified for every child in one call
  (:meth:`~repro.sfc.regions.Region.classify_cells`);
* fully-contained children accumulate as raw index intervals and only the
  final sorted, merged range list surfaces as Python objects.

The result is **identical** to resolving level by level with the kernel
(property-tested in ``tests/sfc/test_refine_vec.py``).  It requires curve
indices that fit in ``int64`` (``index_bits <= 63``);
:func:`repro.sfc.clusters.resolve_clusters` falls back to the kernel
otherwise.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import SFCError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sfc.base import CurveState, SpaceFillingCurve
from repro.sfc.regions import Region

__all__ = [
    "CurveTable",
    "curve_table",
    "resolve_ranges_vec",
    "supports_vectorized",
]


class CurveTable:
    """Integer-indexed child transition table of one curve's state machine.

    ``states[i]`` is the i-th reachable :data:`~repro.sfc.base.CurveState`
    (BFS order from the root, so the root is state 0); ``labels[i, r]`` is
    the coordinate label of the rank-``r`` child of a subcube in state
    ``i``; ``next_ids[i, r]`` the child's state id.  Both arrays are
    ``int64`` and shaped ``(n_states, 2**dims)``.
    """

    __slots__ = ("states", "ids", "labels", "next_ids")

    def __init__(self, curve: SpaceFillingCurve) -> None:
        root = curve.root_state()
        states: list[CurveState] = [root]
        ids: dict[CurveState, int] = {root: 0}
        label_rows: list[list[int]] = []
        next_rows: list[list[int]] = []
        queue: deque[CurveState] = deque([root])
        while queue:
            state = queue.popleft()
            label_row: list[int] = []
            next_row: list[int] = []
            for label, child in curve.children(state):
                child_id = ids.get(child)
                if child_id is None:
                    child_id = ids[child] = len(states)
                    states.append(child)
                    queue.append(child)
                label_row.append(label)
                next_row.append(child_id)
            label_rows.append(label_row)
            next_rows.append(next_row)
        self.states = tuple(states)
        self.ids = ids
        self.labels = np.asarray(label_rows, dtype=np.int64)
        self.next_ids = np.asarray(next_rows, dtype=np.int64)


_TABLES: "WeakKeyDictionary[SpaceFillingCurve, CurveTable]" = WeakKeyDictionary()


def curve_table(curve: SpaceFillingCurve) -> CurveTable:
    """The (cached) transition table of ``curve``; built on first use."""
    table = _TABLES.get(curve)
    if table is None:
        table = _TABLES[curve] = CurveTable(curve)
    return table


def supports_vectorized(curve: SpaceFillingCurve) -> bool:
    """True when the array-resident resolver applies (indices fit ``int64``)."""
    return curve.fits_int64


def resolve_ranges_vec(
    curve: SpaceFillingCurve,
    region: Region,
    max_level: int | None = None,
) -> list[tuple[int, int]]:
    """Exact cluster index ranges of a region, resolved entirely in NumPy.

    The array-resident counterpart of
    :func:`repro.sfc.clusters.resolve_clusters`: the frontier of partial
    cells lives in ``(coords, prefix, state_id)`` arrays, each level is one
    batch of array ops, fully-contained children accumulate as raw index
    intervals, and only the final sorted/merged range list surfaces as
    Python objects.  Produces byte-identical output to the scalar resolver
    (the maximal disjoint decomposition of the region's curve image is
    unique); ``max_level`` caps refinement the same way, counting the
    still-partial frontier cells at their full index spans.

    When a profiler is active the array stage is timed under the
    ``sfc.refine_vec`` phase.
    """
    if not supports_vectorized(curve):
        raise SFCError("vectorized resolution requires index_bits <= 63")
    dims = curve.dims
    order = curve.order
    limit = order if max_level is None else min(max_level, order)
    table = curve_table(curve)

    root_relation = region.classify_cell((0,) * dims, (curve.side - 1,) * dims)
    if root_relation.value == 0:  # pragma: no cover - regions are in-range
        return []
    if root_relation.value == 2:
        return [(0, curve.size - 1)]

    # The frontier: all partial cells of the current level.
    coords = np.zeros((1, dims), dtype=np.int64)
    prefixes = np.zeros(1, dtype=np.int64)
    state_ids = np.zeros(1, dtype=np.int64)
    level = 0
    acc_lows: list[np.ndarray] = []
    acc_highs: list[np.ndarray] = []
    n_expanded = 0

    ranks = np.arange(1 << dims, dtype=np.int64)
    dim_shifts = np.arange(dims, dtype=np.int64)
    prof = obs_profile._PROFILER
    start = perf_counter() if prof is not None else 0.0
    while level < limit and prefixes.size:
        next_level = level + 1
        shift = order - next_level
        span_bits = shift * dims
        labels = table.labels[state_ids]
        next_ids = table.next_ids[state_ids]
        bits = (labels[:, :, None] >> dim_shifts) & 1
        child_coords = ((coords[:, None, :] << 1) | bits).reshape(-1, dims)
        child_lows = ((prefixes[:, None] << dims | ranks) << span_bits).ravel()

        cell_lows = child_coords << shift
        cell_highs = cell_lows + ((1 << shift) - 1)
        codes = region.classify_cells(cell_lows, cell_highs)

        full = codes == 2
        if full.any():
            lows_full = child_lows[full]
            acc_lows.append(lows_full)
            acc_highs.append(lows_full + ((1 << span_bits) - 1))
        partial = codes == 1
        n_expanded += prefixes.size
        coords = child_coords[partial]
        prefixes = ((prefixes[:, None] << dims) | ranks).ravel()[partial]
        state_ids = next_ids.ravel()[partial]
        level = next_level
    if prof is not None:
        prof.record("sfc.refine_vec", perf_counter() - start)

    if prefixes.size:
        # Refinement cap reached: still-partial cells count whole.
        span_bits = (order - level) * dims
        lows_left = prefixes << span_bits
        acc_lows.append(lows_left)
        acc_highs.append(lows_left + ((1 << span_bits) - 1))

    reg = obs_metrics.active()
    if reg is not None:
        reg.counter("sfc.refine.vec_calls").inc()
        reg.counter("sfc.refine.vec_cells").inc(n_expanded)

    if not acc_lows:  # pragma: no cover - a partial root always yields cells
        return []
    lows = np.concatenate(acc_lows)
    highs = np.concatenate(acc_highs)
    order_ix = np.argsort(lows)
    lows = lows[order_ix]
    highs = highs[order_ix]
    # Cells are disjoint, so only adjacency merges: a new run starts where
    # the previous range's high + 1 < the next low.
    starts = np.empty(lows.size, dtype=bool)
    starts[0] = True
    np.greater(lows[1:], highs[:-1] + 1, out=starts[1:])
    start_pos = np.flatnonzero(starts)
    end_pos = np.append(start_pos[1:] - 1, lows.size - 1)
    return list(zip(lows[start_pos].tolist(), highs[end_pos].tolist()))
