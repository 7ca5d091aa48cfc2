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
from time import perf_counter
from typing import Iterator, NamedTuple, Sequence, Union

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
    "iter_levels",
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


#: Most remainders one query tree (``refine_cluster``'s ``tree``) keeps.  A
#: full tree is cleared: ring changes move the ``min_index`` keys, and the
#: keys they left behind must not pin the cap.
TREE_CAPACITY = 256


def refine_cluster(
    curve: SpaceFillingCurve,
    cluster: Cluster,
    region: Region,
    min_index: int = 0,
    tree: dict | None = None,
) -> Sequence[Cluster]:
    """One refinement step: expand partial cells, split runs on gaps.

    ``min_index`` restricts the result to curve indices ``>= min_index``
    (used by the distributed engine: a node refines only the part of a
    cluster beyond its own identifier).  FullRange pieces are passed through
    (clipped); Cell pieces are expanded into their children in curve order
    and classified against the region.  Maximal contiguous runs of surviving
    pieces form the output clusters.

    Returns a list, or with a ``tree`` the tuple it files there.  ``tree``
    memoizes the step for one ``(curve, region)``: a dict from ``(cluster,
    min_index)`` to the step's clusters.  A replayed step counts its cells
    in ``sfc.refine.scalar_cells`` like a computed one and counts one
    ``plan_cache.tree_hits``.

    This is the hot refinement path; when a profiler is enabled
    (:func:`repro.obs.profile.enable_profiling`) each computed call is timed
    under the ``sfc.refine`` phase.
    """
    reg = obs_metrics.active()
    if reg is not None:
        reg.counter("sfc.refine.scalar_cells").inc(cluster.cell_count())
    if tree is not None:
        key = (cluster, min_index)
        runs = tree.get(key)
        if runs is not None:
            if reg is not None:
                reg.counter("plan_cache.tree_hits").inc()
            return runs
    prof = obs_profile._PROFILER
    if prof is None:
        runs = _refine(curve, cluster, region, min_index)
    else:
        start = perf_counter()
        try:
            runs = _refine(curve, cluster, region, min_index)
        finally:
            prof.record("sfc.refine", perf_counter() - start)
    if tree is not None:
        if len(tree) >= TREE_CAPACITY:
            tree.clear()
        runs = tree[key] = tuple(runs)
    return runs


@cache
def _label_tables(dims: int) -> tuple[tuple[tuple[int, int], ...], tuple]:
    """Per-dimensionality tables over the ``2**dims`` child labels.

    ``halves[j]`` is a pair of bitmasks over labels (bit ``label`` set)
    selecting the children in the lower / upper half of dimension ``j``;
    ``coords_of[label]`` maps a cell's coordinates to that child's (one
    compiled tuple expression: a quarter of the cost of a ``map``).
    """
    labels = range(1 << dims)
    every = (1 << (1 << dims)) - 1
    halves = []
    for j in range(dims):
        upper = sum(1 << label for label in labels if (label >> j) & 1)
        halves.append((every ^ upper, upper))
    coords_of = tuple(
        eval(f"lambda c: ({''.join(f'2 * c[{j}] + {label >> j & 1}, ' for j in range(dims))})")
        for label in labels
    )
    return tuple(halves), coords_of


def _actions(children: tuple, overlap: int, full: int, coords_of: tuple) -> tuple:
    """What the children of a cell in one state become, in rank order, given
    the child labels the region meets (``overlap``) and covers (``full``).

    Returns the actions and, per rank, the index of the action holding it.
    An action is ``None`` for a gap (missed children, consecutive ones as
    one), ``(first_rank, last_rank, None)`` for a run of covered children,
    or ``(rank, coords_of[label], child_state)`` for a partial child.
    """
    acts: list = []
    at = []
    for rank, (label, child_state) in enumerate(children):
        if (full >> label) & 1:
            if acts and acts[-1] is not None and acts[-1][2] is None:
                acts[-1] = (acts[-1][0], rank, None)
            else:
                acts.append((rank, rank, None))
        elif (overlap >> label) & 1:
            acts.append((rank, coords_of[label], child_state))
        elif not acts or acts[-1] is not None:
            acts.append(None)
        at.append(len(acts) - 1)
    return tuple(acts), tuple(at)


def _refine(
    curve: SpaceFillingCurve,
    cluster: Cluster,
    region: Region,
    min_index: int,
) -> list[Cluster]:
    """The refinement kernel: plain integers, one pass, output built in place.

    Per partial cell the region test is done once per *dimension*, not per
    child: each box contributes two bitmasks over the ``2**dims`` child
    labels (children it overlaps, children it contains).  An axis the box
    spans adds nothing to either and costs one test; on an axis it cuts,
    the cell's lower and upper half are compared with the box's interval.
    The cell's ``(state, overlap, full)`` then fixes what its children
    become, looked up once in ``curve.refine_table`` (:func:`_actions`).
    Children entirely below ``min_index`` are a rank prefix, skipped first.
    """
    dims = curve.dims
    next_level = cluster.level + 1
    # Coordinate / index bits below the child level (none for a cluster at
    # the maximum order, which may hold FullRanges but no Cell).  A cell
    # spans ``2 << shift`` coordinates per axis; its upper half starts
    # ``half`` above its lower bound.
    shift = max(curve.order - next_level, 0)
    span_bits = shift * dims
    span_mask = (1 << span_bits) - 1
    cell_bits = shift + 1
    half = 1 << shift
    edge = (2 << shift) - 1
    n_children = 1 << dims
    every = (1 << n_children) - 1
    children = curve.children
    table = curve.refine_table
    halves, coords_of = _label_tables(dims)
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
        if next_level > curve.order:
            raise SFCError("cannot refine a cell at maximum order")
        _, prefix, coords, state = piece
        base = prefix << dims
        cell_low = base << span_bits
        clipped = min_index > cell_low
        if clipped:
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
            box_overlap = box_full = every
            for c, (box_low, box_high), (lower_j, upper_j) in zip(coords, box, halves):
                lo = c << cell_bits
                hi = lo | edge
                if box_low <= lo and hi <= box_high:
                    continue  # the box spans the cell on this axis
                mid = lo | half
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
        key = (state, overlap, full)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _actions(children(state), overlap, full, coords_of)
        acts, at = entry
        if clipped:
            acts = acts[at[first]:]
        head = acts[0]
        if head is not None and head[2] is None:
            # A leading covered run is the one that may start at the window
            # or join a covered run before the cell; runs inside the actions
            # are already maximal.
            append_full(
                min_index if clipped else cell_low,
                ((base | head[1]) << span_bits) | span_mask,
            )
            acts = acts[1:]
        for act in acts:
            if act is None:
                if current:
                    flush()
                continue
            rank, other, child_state = act
            if child_state is None:  # ``other`` is the run's last rank
                high = ((base | other) << span_bits) | span_mask
                append(_new(FullRange, ((base | rank) << span_bits, high)))
            else:  # ``other`` maps the cell's coordinates to the child's
                append(_new(Cell, (next_level, base | rank, other(coords), child_state)))
    if current:
        flush()
    return runs


def refine_level(
    curve: SpaceFillingCurve,
    clusters: list[Cluster],
    region: Region,
    min_index: int = 0,
) -> list[Cluster]:
    """One refinement step across a whole level's clusters.

    Resolved clusters (pure index ranges) need no geometry: they are carried
    to the next level unchanged, the identity refinement (a level bump).

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
        else:
            out.append(Cluster(level=cluster.level + 1, pieces=cluster.pieces))
    if prof is not None:
        prof.record("sfc.refine", perf_counter() - start)
    return out


def iter_levels(
    curve: SpaceFillingCurve, region: Region, max_level: int | None = None
) -> Iterator[list[Cluster]]:
    """The region's clusters at levels 0, 1, …, ``max_level`` (at most, and
    by default, ``curve.order``), each level refined only when asked for.

    FullRange pieces created at shallower levels are carried through, so
    level ``ℓ``'s clusters are exactly the maximal contiguous intersecting
    runs of level-``ℓ`` cells (what the paper counts as clusters at the
    ``ℓ``-th curve approximation).
    """
    limit = curve.order if max_level is None else min(max_level, curve.order)
    root = root_cluster(curve, region)
    if root is None:  # pragma: no cover - defensive
        return
    clusters = [root]
    yield clusters
    for _ in range(limit):
        clusters = refine_level(curve, clusters, region)
        yield clusters


def clusters_at_level(
    curve: SpaceFillingCurve, region: Region, level: int
) -> list[Cluster]:
    """All clusters of ``region`` at refinement level ``level``."""
    if not 0 <= level <= curve.order:
        raise ValueError(f"level must be in [0, {curve.order}], got {level}")
    clusters: list[Cluster] = []
    for clusters in iter_levels(curve, region, level):
        pass
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
    clusters: list[Cluster] = []
    for clusters in iter_levels(curve, region, max_level):
        if all(c.is_resolved for c in clusters):
            break
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

    Entry ``i`` is the cluster count at level ``i``, for every level up to
    ``max_level`` (default ``curve.order``); once all clusters are resolved
    the count stays constant.
    """
    return [len(clusters) for clusters in iter_levels(curve, region, max_level)]
