"""The assembled Squid system: keyword space + SFC + overlay + stores.

:class:`SquidSystem` is the library's main entry point.  It owns

* the :class:`~repro.keywords.space.KeywordSpace` describing data elements,
* the :class:`~repro.sfc.base.SpaceFillingCurve` (Hilbert by default) whose
  index space doubles as the overlay identifier space,
* a :class:`~repro.overlay.chord.ChordRing` of peers,
* one :class:`~repro.store.base.NodeStore` per peer — the backend is chosen
  by name (``store="local"`` / ``"sqlite"``, see
  :mod:`repro.store`), and every store the system ever builds (initial
  ring, later joins) comes from the same :class:`~repro.store.base.StoreSpec`,

and exposes ``publish`` / ``query`` plus the membership operations
(`add_node`, `remove_node`) that move keys the way the protocol would.

Example
-------
>>> from repro import SquidSystem, KeywordSpace, WordDimension
>>> space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)
>>> system = SquidSystem.create(space, n_nodes=16, seed=7)
>>> _ = system.publish(("computer", "network"), payload="doc-1")
>>> result = system.query("(comp*, *)")
>>> [e.payload for e in result.matches]
['doc-1']
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.engine import OptimizedEngine, QueryEngine, make_engine
from repro.core.metrics import QueryResult, QueryStats
from repro.core.plancache import PlanCache
from repro.config import current
from repro.core.resultcache import ResultCache, result_key
from repro.errors import ConfigError, DuplicateNodeError, OverlayError
from repro.keywords.space import KeywordSpace
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs.trace import KeyMoved, NodeJoined, NodeLeft, Tracer
from repro.overlay.base import ring_contains_open_closed
from repro.overlay.chord import ChordRing
from repro.sfc import CURVES, sample_box_regions, select_curve
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.regions import Region
from repro.store import NodeStore, StoredElement, StoreSpec, as_spec
from repro.util.rng import RandomLike, as_generator

__all__ = ["SquidSystem"]

#: Sentinel distinguishing "no payload filter" from ``payload=None``.
_UNSET = object()


def _sample_regions(
    space: KeywordSpace, curve_sample: Iterable[Any] | None, rng: RandomLike
) -> list[Region]:
    """Coerce a workload sample into query regions for curve selection.

    Entries may be :class:`~repro.sfc.regions.Region` objects or anything
    ``KeywordSpace.region`` accepts (query strings, :class:`Query`, term
    sequences).  ``None`` falls back to a seeded mix of random cube queries.
    """
    if curve_sample is None:
        return sample_box_regions(space.dims, space.bits, rng=rng)
    regions: list[Region] = []
    for entry in curve_sample:
        if isinstance(entry, Region):
            regions.append(entry)
        else:
            regions.append(space.region(entry))
    return regions


def _resolve_curve(
    curve: "SpaceFillingCurve | str",
    space: KeywordSpace,
    rng: RandomLike = None,
    curve_sample: Iterable[Any] | None = None,
) -> SpaceFillingCurve:
    """Resolve a ``curve=`` argument into a curve instance.

    The name ``"auto"`` selects the cheapest family for a sampled workload
    via :func:`repro.sfc.select_curve`.  The order is fixed to the space's
    bit depth — the overlay identifier width depends on it.
    """
    if isinstance(curve, SpaceFillingCurve):
        return curve
    if curve == "auto":
        regions = _sample_regions(space, curve_sample, rng)
        choice = select_curve(regions, space.dims, space.bits)
        return choice.make(space.dims)
    if curve not in CURVES:
        raise ConfigError(
            f"unknown curve {curve!r}; choose from {sorted(CURVES) + ['auto']}"
        )
    return CURVES[curve](space.dims, space.bits)


def _coerce_result_cache(
    knob: "ResultCache | int | bool | None",
) -> ResultCache | None:
    if knob is None or knob is False:
        return None
    if knob is True:
        return ResultCache()
    if isinstance(knob, int):
        return ResultCache(capacity=knob)
    return knob


class SquidSystem:
    """A complete simulated Squid deployment."""

    def __init__(
        self,
        space: KeywordSpace,
        overlay: ChordRing,
        curve: SpaceFillingCurve | str | None = None,
        default_engine: QueryEngine | str | None = None,
        rng: RandomLike = None,
        store: str | StoreSpec | None = None,
        result_cache: "ResultCache | int | bool | None" = None,
    ) -> None:
        self.space = space
        gen = as_generator(rng)
        # What the caller leaves unsaid comes from one place (repro.config).
        config = current()
        self.curve = _resolve_curve(curve if curve is not None else config.curve, space, rng=gen)
        if self.curve.dims != space.dims or self.curve.order != space.bits:
            raise OverlayError(
                "curve geometry must match the keyword space "
                f"(curve {self.curve.dims}D/{self.curve.order} bits vs "
                f"space {space.dims}D/{space.bits} bits)"
            )
        if overlay.bits != self.curve.index_bits:
            raise OverlayError(
                f"overlay identifier width ({overlay.bits}) must equal the "
                f"curve index width ({self.curve.index_bits})"
            )
        self.overlay = overlay
        #: Recipe every per-node store is built from (initial ring and later
        #: joins alike); picklable, so spawn workers rebuild the same backend.
        self.store_spec: StoreSpec = as_spec(store if store is not None else config.store)
        self.stores: dict[int, NodeStore] = {
            node_id: self.store_spec.create(node_id=node_id)
            for node_id in overlay.node_ids()
        }
        if isinstance(default_engine, str):
            default_engine = make_engine(default_engine)
        self.default_engine = default_engine or OptimizedEngine()
        self._rng = gen
        #: Attached :class:`~repro.obs.trace.Tracer`, or None (no tracing).
        self.tracer: Tracer | None = None
        #: Initiator-side query-plan cache (see :mod:`repro.core.plancache`).
        #: Plans are pure functions of (curve, region, engine parameters),
        #: so the cache needs no invalidation; set to None to disable.
        self.plan_cache: PlanCache | None = PlanCache()
        #: Initiator-side result cache (see :mod:`repro.core.resultcache`).
        #: Accepts an instance, a capacity (int), True (defaults), False
        #: (off), or None — None defers to ``repro.config`` (the CLI
        #: ``--result-cache`` flag), which is off unless configured.
        self.result_cache: ResultCache | None = _coerce_result_cache(
            result_cache if result_cache is not None else config.result_cache
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        space: KeywordSpace,
        n_nodes: int,
        curve: "str | SpaceFillingCurve | None" = None,
        seed: RandomLike = None,
        engine: QueryEngine | str | None = None,
        store: str | StoreSpec | None = None,
        result_cache: "ResultCache | int | bool | None" = None,
        curve_sample: Iterable[Any] | None = None,
    ) -> "SquidSystem":
        """Build a system of ``n_nodes`` peers with random identifiers.

        ``curve``, ``engine``, and ``store`` are symmetric: each accepts a
        registry name (``curve="hilbert"``, ``engine="optimized"``/``"naive"``,
        ``store="local"``/``"sqlite"``) — ``curve`` and
        ``engine`` also take ready instances, ``store`` a
        :class:`~repro.store.base.StoreSpec` carrying backend options.
        ``store=None``, ``curve=None`` and ``result_cache=None`` take the
        value of :func:`repro.config.current`.  ``curve="auto"`` picks the
        cheapest registered family for a workload sample (``curve_sample``:
        query strings or :class:`~repro.sfc.regions.Region` objects; a
        seeded mix of random cube queries when omitted) via
        :func:`repro.sfc.select_curve`.
        """
        gen = as_generator(seed)
        if curve is None:
            curve = current().curve
        sfc = _resolve_curve(curve, space, rng=gen, curve_sample=curve_sample)
        ring = ChordRing.with_random_ids(sfc.index_bits, n_nodes, rng=gen)
        return cls(
            space,
            ring,
            curve=sfc,
            default_engine=engine,
            rng=gen,
            store=store,
            result_cache=result_cache,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Tracer | None = None) -> Tracer:
        """Attach (and return) a tracer; queries now produce ``result.trace``.

        Membership operations and key movement also record lifecycle events
        on the tracer.  Passing ``None`` creates a fresh
        :class:`~repro.obs.trace.Tracer`.
        """
        self.tracer = tracer if tracer is not None else Tracer()
        return self.tracer

    def detach_tracer(self) -> Tracer | None:
        """Detach and return the current tracer (queries stop tracing)."""
        tracer, self.tracer = self.tracer, None
        return tracer

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def index_of(self, key: Sequence[Any]) -> int:
        """Curve index of a keyword tuple."""
        prof = obs_profile.active_profiler()
        if prof is None:
            return self.curve.encode(self.space.coordinates(key))
        with prof.phase("sfc.encode"):
            return self.curve.encode(self.space.coordinates(key))

    def publish(
        self, key: Sequence[Any], payload: Any = None, pad: bool = False
    ) -> StoredElement:
        """Insert one data element at the node owning its index.

        With ``pad=True``, a key shorter than the space's dimensionality is
        extended by cyclic repetition (the paper's "one or more keywords,
        up to d" convention), so e.g. a single-keyword document is
        discoverable by that keyword on any dimension.
        """
        normalized = self.space.pad_key(key) if pad else self.space.validate_key(key)
        prof = obs_profile.active_profiler()
        if prof is None:
            coords = self.space.coordinates(normalized)
            index = self.curve.encode(coords)
        else:
            with prof.phase("sfc.encode"):
                coords = self.space.coordinates(normalized)
                index = self.curve.encode(coords)
        element = StoredElement(index=index, key=normalized, payload=payload)
        self.stores[self.overlay.owner(index)].add(element)
        if self.result_cache is not None:
            self.result_cache.invalidate_point(index, coords)
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("system.publishes").inc()
        return element

    def publish_many(
        self,
        keys: Iterable[Sequence[Any]],
        payloads: Iterable[Any] | None = None,
        pad: bool = False,
    ) -> int:
        """Bulk publish (vectorized indexing); returns elements inserted.

        Symmetric with :meth:`publish`: ``pad=True`` extends short keys by
        cyclic repetition before indexing.  Ownership is resolved in one
        vectorized :meth:`~repro.overlay.base.Overlay.owner_many` call, so a
        bulk publish places every element exactly where per-element
        :meth:`publish` calls would.
        """
        if pad:
            key_list = [self.space.pad_key(k) for k in keys]
        else:
            key_list = [self.space.validate_key(k) for k in keys]
        if not key_list:
            return 0
        payload_list = list(payloads) if payloads is not None else [None] * len(key_list)
        if len(payload_list) != len(key_list):
            raise ValueError("payloads length must match keys length")
        prof = obs_profile.active_profiler()
        if prof is None:
            coords = self.space.coordinates_many(key_list)
            indices = self.curve.encode_many(coords)
        else:
            with prof.phase("sfc.encode"):
                coords = self.space.coordinates_many(key_list)
                indices = self.curve.encode_many(coords)
        owners = self.overlay.owner_many(indices)
        per_node: dict[int, list[StoredElement]] = {}
        for key, payload, index, owner in zip(key_list, payload_list, indices, owners):
            per_node.setdefault(int(owner), []).append(
                StoredElement(index=int(index), key=key, payload=payload)
            )
        for owner, elements in per_node.items():
            self.stores[owner].add_sorted_bulk(elements)
        if self.result_cache is not None:
            self.result_cache.invalidate_points(indices, coords)
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("system.publishes").inc(len(key_list))
        return len(key_list)

    def unpublish(
        self, key: Sequence[Any], payload: Any = _UNSET, pad: bool = False
    ) -> int:
        """Remove published elements matching ``key``; returns count removed.

        With the default ``payload`` every element stored under the exact
        keyword tuple is removed; passing a payload removes only elements
        carrying it (multimap semantics — a key may hold many payloads).
        Removal invalidates overlapping result-cache entries exactly like a
        publish at the same point would.
        """
        normalized = self.space.pad_key(key) if pad else self.space.validate_key(key)
        coords = self.space.coordinates(normalized)
        index = self.curve.encode(coords)
        store = self.stores[self.overlay.owner(index)]
        popped = list(store.pop_range(index, index))
        kept = [
            element
            for element in popped
            if element.key != normalized
            or (payload is not _UNSET and element.payload != payload)
        ]
        removed = len(popped) - len(kept)
        if kept:
            store.add_sorted_bulk(kept)
        if removed and self.result_cache is not None:
            self.result_cache.invalidate_point(index, coords)
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("system.unpublishes").inc(removed)
        return removed

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        query,
        engine: QueryEngine | str | None = None,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority: str | int | None = None,
    ) -> QueryResult:
        """Resolve a flexible query (AST, text, or term sequence).

        ``limit`` enables discovery mode: stop once at least ``limit``
        matches are found (useful when any match will do, e.g. finding *a*
        machine with 512MB rather than all of them).

        ``priority`` classifies the query for overload protection
        (``"interactive"`` / ``"batch"`` / ``"background"``; default
        interactive).  It is consulted only by an engine carrying an armed
        :class:`~repro.guard.GuardPlane` — unguarded execution is identical
        for every class — and deliberately does not enter result-cache
        keys: the class changes *whether* work is shed under load, never
        what a complete answer contains.

        When a :attr:`result_cache` is attached and the query is unlimited,
        a cached complete result is returned without touching the overlay:
        the hit carries the stored matches, fresh zero-cost stats with
        ``result_cache_hit=True``, and no trace.  Discovery-mode queries
        (``limit=``) bypass the cache — their truncated match sets are not
        canonical answers for the region.
        """
        eng = self._coerce_engine(engine)
        hit, filing, bound = self._cache_probe(eng, query, limit)
        if hit is not None:
            return hit
        result = eng.execute(
            self,
            bound,
            origin=origin,
            rng=rng if rng is not None else self._rng,
            limit=limit,
            priority=priority,
        )
        self._cache_store(filing, bound, result)
        return result

    def _cache_probe(self, engine: QueryEngine, query, limit: int | None):
        """The result-cache fast path of :meth:`query` and of the transports.

        Returns ``(hit, filing, bound)``: a cached result, or on a miss what
        :meth:`_cache_store` files the answer under (``None`` when the cache
        is not consulted) and the query to hand to the engine — what the
        probe built, so the engine does not parse, check and cover the text
        a second time, or ``query`` unchanged.

        Query *text* that filed a live entry resolves through the cache's
        alias, so a repeated text query that hits costs two dictionary
        lookups and touches nothing in ``keywords`` or ``sfc``.
        """
        cache = self.result_cache
        if cache is None or limit is not None:
            return None, None, query
        params = engine.result_cache_params()
        if params is None:
            return None, None, query
        alias = (query, engine.name, params) if type(query) is str else None
        known = cache.aliased(alias) if alias is not None else None
        if known is not None:
            bound, key = known
        else:
            bound = self.space.bind(query)
            key = result_key(
                self.curve, bound.region, engine.name, params, query=bound.query
            )
        cached = cache.get(key)
        if cached is not None:
            hit = QueryResult(
                bound.query,
                list(cached),
                QueryStats(result_cache_hit=True),
                None,
                complete=True,
            )
            return hit, None, None
        return None, (key, alias), bound

    def _cache_store(self, filing, bound, result: QueryResult) -> None:
        """File a fresh answer under what :meth:`_cache_probe` returned."""
        if filing is not None:
            key, alias = filing
            self.result_cache.put(key, result, bound, alias)

    def query_many(
        self,
        queries: Iterable[Any],
        workers: int | None = None,
        seed: RandomLike = 0,
        engine: QueryEngine | str | None = None,
        origin: int | None = None,
        limit: int | None = None,
        priority: str | int | None = None,
        chunk_size: int | None = None,
    ):
        """Resolve a batch of queries, optionally across worker processes.

        Returns a :class:`~repro.exec.pool.BatchResult` with per-query
        results in input order, a merged :class:`QueryStats`, and a merged
        metrics snapshot.  Results are bit-identical for any ``workers``
        value (``None`` uses :func:`repro.config.current`'s); only
        wall-clock time changes.  ``seed`` feeds per-chunk RNG derivation,
        replacing the system's own generator for the batch so batches are
        reproducible regardless of prior query history.
        """
        from repro.exec.pool import QueryPool

        pool = QueryPool(self, workers=workers, chunk_size=chunk_size)
        return pool.run(
            queries, seed=seed, engine=engine, origin=origin, limit=limit,
            priority=priority,
        )

    def _coerce_engine(self, engine: QueryEngine | str | None) -> QueryEngine:
        if engine is None:
            return self.default_engine
        if isinstance(engine, str):
            return make_engine(engine)
        return engine

    def explain(self, query) -> dict[str, Any]:
        """Describe how a query would resolve, without contacting any peer.

        Returns the covering region's bounds, the cluster counts at each
        refinement level (the paper's query-tree width), the exact cluster
        count, and an estimate of the peers the optimized engine would touch
        — a developer tool for understanding query cost before running it.
        """
        from repro.sfc.clusters import count_clusters_per_level, resolve_clusters

        q = self.space.as_query(query)
        region = self.space.region(q)
        # Cap the per-level expansion at the depth where node arcs dominate:
        # beyond ~log2(N) index bits, clusters fit within single peers.
        n = max(len(self.overlay), 2)
        useful_level = min(
            self.curve.order,
            max(1, (n.bit_length() + self.curve.dims - 1) // self.curve.dims + 1),
        )
        level_counts = count_clusters_per_level(
            self.curve, region, max_level=useful_level
        )
        ranges = resolve_clusters(self.curve, region, max_level=useful_level)
        touched = set()
        for low, high in ranges:
            touched.add(self.overlay.owner(low))
            touched.add(self.overlay.owner(high))
        return {
            "query": str(q),
            "region_bounds": [
                (iv.low, iv.high) for iv in region.boxes[0].intervals
            ],
            "clusters_per_level": level_counts,
            "clusters_at_node_granularity": len(ranges),
            "estimated_peers_lower_bound": len(touched),
            "index_bits": self.curve.index_bits,
        }

    def brute_force_matches(self, query) -> list[StoredElement]:
        """Oracle: scan every store (used by tests and guarantees checks)."""
        q = self.space.as_query(query)
        out = []
        for store in self.stores.values():
            for element in store.all_elements():
                if self.space.matches(element.key, q):
                    out.append(element)
        return out

    # ------------------------------------------------------------------
    # Membership with key movement
    # ------------------------------------------------------------------
    def _owned_segments(self, node_id: int) -> list[tuple[int, int]]:
        """The inclusive index segments ``node_id`` owns: ``(pred, id]``."""
        pred = self.overlay.predecessor_id(node_id)
        if pred == node_id:  # sole node: owns the whole ring
            return [(0, self.overlay.space - 1)]
        if pred < node_id:
            return [(pred + 1, node_id)]
        return [(pred + 1, self.overlay.space - 1), (0, node_id)]

    def _invalidate_segments(self, segments: Iterable[tuple[int, int]]) -> None:
        """Conservatively drop cached results overlapping churned segments.

        Graceful membership changes preserve the global data set, so cached
        match tuples would in fact stay exact — but the ISSUE-level contract
        for the result cache is that *any* churn event touching a cached
        region's index ranges invalidates the overlapping entries, which
        also makes the crash path (where data really is lost) share one
        code path with graceful movement.
        """
        cache = self.result_cache
        if cache is None:
            return
        for low, high in segments:
            if low <= high:
                cache.invalidate_range(low, high)

    def add_node(self, node_id: int) -> int:
        """Join a node and hand it the keys it now owns; returns message cost."""
        if node_id in self.stores:
            raise DuplicateNodeError(f"node {node_id} already present")
        cost = self.overlay.join(node_id)
        store = self.store_spec.create(node_id=node_id)
        self.stores[node_id] = store
        successor = self.overlay.successor_id(node_id)
        moved = 0
        if successor != node_id:
            moved = self._transfer_range_from(successor, node_id)
            cost += 1 if moved else 0
        self._invalidate_segments(self._owned_segments(node_id))
        if self.tracer is not None:
            self.tracer.record(NodeJoined(node_id))
            if moved:
                self.tracer.record(KeyMoved(successor, node_id, moved))
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("system.nodes_joined").inc()
            reg.counter("system.keys_moved").inc(moved)
            reg.gauge("system.nodes").set(len(self.overlay))
        return cost

    def remove_node(self, node_id: int) -> int:
        """Gracefully remove a node, handing its keys to its successor."""
        departing_segments = self._owned_segments(node_id)
        successor = self.overlay.successor_id(node_id)
        cost = self.overlay.leave(node_id)
        departing = self.stores.pop(node_id)
        moved = 0
        target_id = node_id
        if self.overlay.node_ids():
            target_id = successor if successor != node_id else self.overlay.node_ids()[0]
            target = self.stores[target_id]
            for element in departing.all_elements():
                target.add(element)
                moved += 1
            cost += 1 if departing.element_count else 0
        departing.close()
        self._invalidate_segments(departing_segments)
        if self.tracer is not None:
            self.tracer.record(NodeLeft(node_id))
            if moved:
                self.tracer.record(KeyMoved(node_id, target_id, moved))
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("system.nodes_left").inc()
            reg.counter("system.keys_moved").inc(moved)
            reg.gauge("system.nodes").set(len(self.overlay))
        return cost

    def change_node_id(self, old_id: int, new_id: int) -> tuple[int, int]:
        """Shift a node's identifier (runtime load balancing, paper §3.5).

        Moving the identifier moves the ``(predecessor, id]`` boundary: keys
        between the old and new identifier change hands with the successor.
        Returns ``(keys_moved, message_cost)``.
        """
        succ = self.overlay.successor_id(old_id)
        cost = self.overlay.rename_node(old_id, new_id)
        store = self.stores.pop(old_id)
        self.stores[new_id] = store
        moved = 0
        if succ == old_id:
            return 0, cost
        if new_id < old_id:
            # Shrunk: hand (new_id, old_id] to the successor.
            for element in store.pop_range(new_id + 1, old_id):
                self.stores[succ].add(element)
                moved += 1
            src, dest = new_id, succ
        else:
            # Grew: absorb (old_id, new_id] from the successor.
            for element in self.stores[succ].pop_range(old_id + 1, new_id):
                store.add(element)
                moved += 1
            src, dest = succ, new_id
        self._invalidate_segments(
            [(new_id + 1, old_id)] if new_id < old_id else [(old_id + 1, new_id)]
        )
        if moved:
            if self.tracer is not None:
                self.tracer.record(KeyMoved(src, dest, moved))
            reg = obs_metrics.active()
            if reg is not None:
                reg.counter("system.keys_moved").inc(moved)
        return moved, cost + (1 if moved else 0)

    def fail_node(self, node_id: int) -> None:
        """Crash a node: its identifier leaves the ring and its keys are lost.

        Unlike :meth:`remove_node` nothing is handed over — this is the
        lossy failure the fault plane and churn simulator inject when no
        replication is attached.  The crashed node's owned index segments
        are computed *before* the ring splices them away and any cached
        results overlapping them are invalidated (their stored matches may
        contain elements that no longer exist anywhere).
        """
        lost_segments = self._owned_segments(node_id)
        self.overlay.fail(node_id)
        self.stores.pop(node_id, None)
        self._invalidate_segments(lost_segments)
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("system.nodes_crashed").inc()
            reg.gauge("system.nodes").set(len(self.overlay))

    def _transfer_range_from(self, source_id: int, new_node_id: int) -> int:
        """Move the keys that ``new_node_id`` now owns out of ``source_id``."""
        pred = self.overlay.predecessor_id(new_node_id)
        source = self.stores[source_id]
        moved = 0
        if pred == new_node_id:  # single node: nothing to move
            return 0
        # The new node owns (pred, new_node]; that range may wrap.
        segments: list[tuple[int, int]]
        if pred < new_node_id:
            segments = [(pred + 1, new_node_id)]
        else:
            segments = [(pred + 1, self.overlay.space - 1), (0, new_node_id)]
        target = self.stores[new_node_id]
        for low, high in segments:
            if low > high:
                continue
            for element in source.pop_range(low, high):
                target.add(element)
                moved += 1
        return moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def node_loads(self) -> dict[int, int]:
        """Keys per node (the paper's load measure, Figure 19)."""
        return {node_id: store.key_count for node_id, store in self.stores.items()}

    def total_keys(self) -> int:
        """Distinct keyword combinations stored across all peers."""
        return sum(store.key_count for store in self.stores.values())

    def total_elements(self) -> int:
        """Data elements stored across all peers."""
        return sum(store.element_count for store in self.stores.values())

    def key_index_distribution(self, intervals: int = 500) -> np.ndarray:
        """Keys per equal-width index-space interval (paper Figure 18)."""
        counts = np.zeros(intervals, dtype=np.int64)
        width = self.curve.size / intervals
        for store in self.stores.values():
            for index in store.indices():
                bucket = min(int(index / width), intervals - 1)
                counts[bucket] += store.key_count_at(index)
        return counts

    def check_placement_invariant(self) -> bool:
        """Every stored element lives at the owner of its index."""
        for node_id, store in self.stores.items():
            node = self.overlay.nodes[node_id]
            for element in store.all_elements():
                if not ring_contains_open_closed(
                    element.index, node.predecessor, node_id, self.overlay.space
                ):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SquidSystem(nodes={len(self.overlay)}, keys={self.total_keys()}, "
            f"space={self.space!r}, curve={self.curve!r})"
        )
