"""Curve clusters and their recursive refinement (the paper's §3.3–3.4).

A *cluster* is a maximal run of consecutive curve cells that intersect a
query region — the curve "enters and exits the region" once per cluster
(paper Figure 5).  Clusters are generated recursively: refining every cell of
a level-ℓ cluster into its ``2**d`` children (in curve order) and keeping the
children that still intersect the region yields the level-(ℓ+1) clusters; the
paper visualises this process as a tree (Figures 6–7) whose nodes carry the
digital-causality *prefix* used as the routing identifier.

Representation
--------------
Naively a cluster is a list of cells, but that explodes for broad queries
(a wildcard-everything query is one cluster with ``2**(ℓ d)`` cells at level
ℓ).  We exploit the containment trichotomy instead: a cluster is an ordered,
index-contiguous sequence of *pieces*,

* :class:`FullRange` — an index interval fully inside the region.  Fully
  covered subtrees need no further geometry: refining them is the identity.
* :class:`Cell` — one subcube that only *partially* intersects the region;
  it carries its curve state so it can be refined exactly.

Only partial cells are ever expanded, so the work per refinement level is
proportional to the region's boundary rather than its volume, while the
cluster semantics (maximal contiguous intersecting runs) are unchanged.
"""

from __future__ import annotations

from functools import cache
from operator import add
from time import perf_counter
from typing import Iterator, NamedTuple, Union

from repro.errors import SFCError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.sfc.base import CurveState, SpaceFillingCurve
from repro.sfc.regions import Containment, Region

__all__ = [
    "Cell",
    "FullRange",
    "Piece",
    "Cluster",
    "root_cluster",
    "refine_cluster",
    "refine_level",
    "clusters_at_level",
    "resolve_clusters",
    "count_clusters_per_level",
]

#: The kernel builds its (already valid) outputs without the Python-level
#: ``__new__`` of the value types: ``_new(FullRange, (low, high))``.
_new = tuple.__new__


class Cell(NamedTuple):
    """A level-``level`` subcube that partially intersects the query region.

    ``prefix`` holds the cell's ``level * dims`` leading index bits (the
    digital-causality prefix); ``coords`` the ``level`` leading bits of each
    coordinate; ``state`` the curve frame used to enumerate children.
    """

    level: int
    prefix: int
    coords: tuple[int, ...]
    state: CurveState

    def index_range(self, curve: SpaceFillingCurve) -> tuple[int, int]:
        return curve.index_range_of_cell(self.level, self.prefix)

    def bounds(self, curve: SpaceFillingCurve) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-dimension inclusive coordinate bounds of the subcube."""
        span = 1 << (curve.order - self.level)
        lows = tuple(c * span for c in self.coords)
        highs = tuple(c * span + span - 1 for c in self.coords)
        return lows, highs


# ``typing.NamedTuple`` forbids overriding ``__new__`` in the class body, so
# the validating constructor lives on a subclass of the bare field tuple.
class _FullRangeFields(NamedTuple):
    low: int
    high: int


class FullRange(_FullRangeFields):
    """An inclusive index interval fully contained in the query region."""

    __slots__ = ()

    def __new__(cls, low: int, high: int) -> "FullRange":
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return _new(cls, (low, high))


Piece = Union[Cell, FullRange]


class Cluster(NamedTuple):
    """A maximal contiguous curve segment intersecting the query region.

    ``pieces`` are ordered by curve index and gap-free: each piece starts at
    the previous piece's end + 1.  ``level`` is the refinement depth of the
    Cell pieces (FullRange pieces may originate from shallower levels).
    """

    level: int
    pieces: tuple[Piece, ...]

    @property
    def is_resolved(self) -> bool:
        """True when no partial cells remain (pure index intervals)."""
        return all(isinstance(p, FullRange) for p in self.pieces)

    def min_index(self, curve: SpaceFillingCurve) -> int:
        first = self.pieces[0]
        if isinstance(first, FullRange):
            return first.low
        return first.prefix << ((curve.order - first.level) * curve.dims)

    def max_index(self, curve: SpaceFillingCurve) -> int:
        last = self.pieces[-1]
        if isinstance(last, FullRange):
            return last.high
        return ((last.prefix + 1) << ((curve.order - last.level) * curve.dims)) - 1

    def identifier(self, curve: SpaceFillingCurve) -> int:
        """Routing identifier: the digital-causality prefix padded with zeros.

        All indices of the cluster share their leading bits down to the
        cluster's minimum index, so the padded prefix *is* the minimum index
        (paper §3.4.1).
        """
        return self.min_index(curve)

    def prefix(self, curve: SpaceFillingCurve) -> tuple[int, int]:
        """Common leading bits of all indices: returns ``(bits, value)``.

        ``bits`` is the length of the shared prefix; ``value`` its contents.
        This is the identifier the paper labels tree nodes with (Figure 7).
        """
        low = self.min_index(curve)
        high = self.max_index(curve)
        bits = curve.index_bits
        while bits > 0 and (low >> (curve.index_bits - bits)) != (
            high >> (curve.index_bits - bits)
        ):
            bits -= 1
        return bits, low >> (curve.index_bits - bits) if bits else 0

    def iter_index_ranges(self, curve: SpaceFillingCurve) -> Iterator[tuple[int, int]]:
        """Yield the inclusive index range of each piece, in order."""
        for piece in self.pieces:
            if isinstance(piece, FullRange):
                yield piece.low, piece.high
            else:
                yield piece.index_range(curve)

    def cell_count(self) -> int:
        """Number of partial cells still unresolved in this cluster."""
        return sum(1 for p in self.pieces if isinstance(p, Cell))


def root_cluster(curve: SpaceFillingCurve, region: Region) -> Cluster | None:
    """Level-0 cluster covering the whole curve, clipped to ``region``.

    Returns ``None`` when the region is empty with respect to the cube
    (cannot normally happen since regions are non-empty boxes in range).
    """
    lows = (0,) * curve.dims
    highs = (curve.side - 1,) * curve.dims
    relation = region.classify_cell(lows, highs)
    if relation is Containment.DISJOINT:  # pragma: no cover - defensive
        return None
    if relation is Containment.FULL:
        return Cluster(level=0, pieces=(FullRange(0, curve.size - 1),))
    cell = Cell(level=0, prefix=0, coords=(0,) * curve.dims, state=curve.root_state())
    return Cluster(level=0, pieces=(cell,))


def refine_cluster(
    curve: SpaceFillingCurve,
    cluster: Cluster,
    region: Region,
    min_index: int = 0,
) -> list[Cluster]:
    """One refinement step: expand partial cells, split runs on gaps.

    ``min_index`` restricts the result to curve indices ``>= min_index``
    (used by the distributed engine: a node refines only the part of a
    cluster beyond its own identifier).  FullRange pieces are passed through
    (clipped); Cell pieces are expanded into their children in curve order
    and classified against the region.  Maximal contiguous runs of surviving
    pieces form the output clusters.

    This is the hot refinement path; when a profiler is enabled
    (:func:`repro.obs.profile.enable_profiling`) each call is timed under
    the ``sfc.refine`` phase.
    """
    reg = obs_metrics.active()
    if reg is not None:
        reg.counter("sfc.refine.scalar_cells").inc(cluster.cell_count())
    prof = obs_profile._PROFILER
    if prof is None:
        return _refine(curve, cluster, region, min_index)
    start = perf_counter()
    try:
        return _refine(curve, cluster, region, min_index)
    finally:
        prof.record("sfc.refine", perf_counter() - start)


@cache
def _label_tables(
    dims: int,
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """Per-dimensionality tables over the ``2**dims`` child labels.

    ``halves[j]`` is a pair of bitmasks over labels (bit ``label`` set)
    selecting the children in the lower / upper half of dimension ``j``;
    ``bits[label]`` is the label's per-dimension bit tuple.
    """
    labels = range(1 << dims)
    every = (1 << (1 << dims)) - 1
    halves = []
    for j in range(dims):
        upper = sum(1 << label for label in labels if (label >> j) & 1)
        halves.append((every ^ upper, upper))
    bits = tuple(tuple((label >> j) & 1 for j in range(dims)) for label in labels)
    return tuple(halves), bits


def _refine(
    curve: SpaceFillingCurve,
    cluster: Cluster,
    region: Region,
    min_index: int,
) -> list[Cluster]:
    """The refinement kernel: plain integers, one pass, output built in place.

    Per partial cell the region test is done once per *dimension*, not per
    child: each box contributes two bitmasks over the ``2**dims`` child
    labels (children it overlaps, children it contains), assembled from the
    relation of the cell's lower and upper half to the box's interval in
    every dimension.  A child's containment is then two bit tests.
    """
    dims = curve.dims
    next_level = cluster.level + 1
    # Coordinate / index bits below the child level.  Negative only for a
    # cluster at the maximum order, which may hold FullRanges but no Cell.
    shift = curve.order - next_level
    span_bits = max(shift, 0) * dims
    span_mask = (1 << span_bits) - 1
    half = 1 << max(shift, 0)
    n_children = 1 << dims
    children = curve.children
    halves, label_bits = _label_tables(dims)
    boxes = region.box_bounds

    runs: list[Cluster] = []
    current: list[Piece] = []
    append = current.append

    def flush() -> None:
        runs.append(_new(Cluster, (next_level, tuple(current))))
        current.clear()

    def append_full(low: int, high: int) -> None:
        # Coalesce adjacent FullRanges to keep piece lists short.
        if current:
            last = current[-1]
            if isinstance(last, FullRange) and last[1] + 1 == low:
                current[-1] = _new(FullRange, (last[0], high))
                return
        append(_new(FullRange, (low, high)))

    for piece in cluster.pieces:
        if isinstance(piece, FullRange):
            low, high = piece
            if high < min_index:
                if current:
                    flush()
            else:
                append_full(low if low > min_index else min_index, high)
            continue
        if shift < 0:
            raise SFCError("cannot refine a cell at maximum order")
        _, prefix, coords, state = piece
        base = prefix << dims
        first = 0
        cell_low = base << span_bits
        if min_index > cell_low:
            # Children entirely below the window split the run; they are a
            # rank prefix, so skip them before touching any geometry.
            first = (min_index - cell_low) >> span_bits
            if first:
                if current:
                    flush()
                if first >= n_children:
                    continue
        overlap = full = 0
        for box in boxes:
            box_overlap = box_full = -1
            for c, (box_low, box_high), (lower_j, upper_j) in zip(coords, box, halves):
                # The cell spans [lo, hi] on this axis; its upper half starts at mid.
                mid = ((c << 1) | 1) << shift
                lo = mid - half
                hi = mid + half - 1
                axis_overlap = axis_full = 0
                if box_low < mid and lo <= box_high:
                    axis_overlap = lower_j
                    if box_low <= lo and mid - 1 <= box_high:
                        axis_full = lower_j
                if mid <= box_high and box_low <= hi:
                    axis_overlap |= upper_j
                    if box_low <= mid and hi <= box_high:
                        axis_full |= upper_j
                if not axis_overlap:
                    break  # the box misses the cell on this axis
                box_overlap &= axis_overlap
                box_full &= axis_full
            else:
                overlap |= box_overlap
                full |= box_full
        doubled = tuple(map(add, coords, coords))
        for rank, (label, child_state) in enumerate(children(state)[first:], first):
            if (full >> label) & 1:
                child_low = (base | rank) << span_bits
                append_full(
                    child_low if child_low > min_index else min_index,
                    child_low | span_mask,
                )
            elif (overlap >> label) & 1:
                append(
                    _new(
                        Cell,
                        (
                            next_level,
                            base | rank,
                            tuple(map(add, doubled, label_bits[label])),
                            child_state,
                        ),
                    )
                )
            elif current:
                flush()
    if current:
        flush()
    return runs


def refine_level(
    curve: SpaceFillingCurve,
    clusters: list[Cluster],
    region: Region,
    min_index: int = 0,
    bump_resolved: bool = True,
) -> list[Cluster]:
    """One refinement step across a whole level's clusters.

    Resolved clusters (pure index ranges) need no geometry; with
    ``bump_resolved`` they are carried to the next level unchanged (the
    identity refinement used by the level-by-level drivers), otherwise
    they pass through as-is (the engine's local expansion semantics).

    Equivalent to calling :func:`refine_cluster` per unresolved cluster, in
    order, but timed as one ``sfc.refine`` phase per batch.
    """
    reg = obs_metrics.active()
    if reg is not None:
        reg.counter("sfc.refine.scalar_cells").inc(
            sum(c.cell_count() for c in clusters)
        )
    prof = obs_profile._PROFILER
    start = perf_counter() if prof is not None else 0.0
    out: list[Cluster] = []
    for cluster in clusters:
        if not cluster.is_resolved:
            out.extend(_refine(curve, cluster, region, min_index))
        elif bump_resolved:
            out.append(Cluster(level=cluster.level + 1, pieces=cluster.pieces))
        else:
            out.append(cluster)
    if prof is not None:
        prof.record("sfc.refine", perf_counter() - start)
    return out


def clusters_at_level(
    curve: SpaceFillingCurve, region: Region, level: int
) -> list[Cluster]:
    """All clusters of ``region`` at refinement level ``level``.

    FullRange pieces created at shallower levels are carried through, so the
    result's clusters are exactly the maximal contiguous intersecting runs of
    level-``level`` cells (what the paper counts as clusters at the k-th
    curve approximation).
    """
    if not 0 <= level <= curve.order:
        raise ValueError(f"level must be in [0, {curve.order}], got {level}")
    root = root_cluster(curve, region)
    if root is None:  # pragma: no cover - defensive
        return []
    clusters = [root]
    for _ in range(level):
        # Resolved clusters have no geometry left: refinement is the
        # identity (level bump); the rest expand, batched per level.
        clusters = refine_level(curve, clusters, region)
    return clusters


def resolve_clusters(
    curve: SpaceFillingCurve, region: Region, max_level: int | None = None
) -> list[tuple[int, int]]:
    """Exact inclusive index intervals of the region's clusters.

    Refines until every cluster is resolved (at worst at ``curve.order``,
    where a cell is a single point).  Returns the sorted list of disjoint
    index ranges whose union is precisely the set of curve indices of points
    inside the region.  ``max_level`` caps refinement for approximate use.

    When a profiler is enabled the full resolution is timed under the
    ``sfc.resolve`` phase (its inner refinements also count toward
    ``sfc.refine``).
    """
    prof = obs_profile._PROFILER
    if prof is not None:
        start = perf_counter()
        try:
            return _resolve_clusters(curve, region, max_level)
        finally:
            prof.record("sfc.resolve", perf_counter() - start)
    return _resolve_clusters(curve, region, max_level)


def _resolve_clusters(
    curve: SpaceFillingCurve, region: Region, max_level: int | None = None
) -> list[tuple[int, int]]:
    if curve.fits_int64:
        # Only the final index ranges are needed, so the fully array-resident
        # resolver applies: no intermediate Cluster objects at all.
        from repro.sfc.refine_vec import resolve_ranges_vec

        return resolve_ranges_vec(curve, region, max_level)
    return _resolve_level_by_level(curve, region, max_level)


def _resolve_level_by_level(
    curve: SpaceFillingCurve, region: Region, max_level: int | None = None
) -> list[tuple[int, int]]:
    """Resolve through the refinement kernel, one level at a time.

    The resolver for curves whose indices do not fit ``int64``, and the
    reference the equivalence tests hold ``resolve_ranges_vec`` to.
    """
    limit = curve.order if max_level is None else min(max_level, curve.order)
    root = root_cluster(curve, region)
    if root is None:  # pragma: no cover - defensive
        return []
    clusters = [root]
    for _ in range(limit):
        if all(c.is_resolved for c in clusters):
            break
        clusters = refine_level(curve, clusters, region)
    ranges: list[tuple[int, int]] = []
    for cluster in clusters:
        low = cluster.min_index(curve)
        high = cluster.max_index(curve)
        if ranges and ranges[-1][1] + 1 >= low:
            # Defensive merge; refinement should already keep runs maximal.
            ranges[-1] = (ranges[-1][0], max(ranges[-1][1], high))
        else:
            ranges.append((low, high))
    return ranges


def count_clusters_per_level(
    curve: SpaceFillingCurve, region: Region, max_level: int | None = None
) -> list[int]:
    """Number of clusters at each refinement level (paper Figure 6 counts).

    Entry ``i`` is the cluster count at level ``i``; refinement stops early
    once all clusters are resolved (counts stay constant afterwards).
    """
    limit = curve.order if max_level is None else min(max_level, curve.order)
    root = root_cluster(curve, region)
    if root is None:  # pragma: no cover - defensive
        return [0]
    clusters = [root]
    counts = [len(clusters)]
    for _ in range(limit):
        clusters = refine_level(curve, clusters, region)
        counts.append(len(clusters))
    return counts
