"""Query-plan cache: memoized cluster plans at the query initiator.

Resolving a query spends much of its CPU on pure geometry — refining the
covering region's clusters over the space-filling curve, first at the
initiator and then at every node that refines the remainder of its
cluster.  That work depends only on ``(curve, region, engine parameters)``
and, at a node, the index ``covered + 1`` it refines beyond — never on the
stored data: node arrivals, departures, and publishes change *where*
clusters are sent and what the scans return, not the clusters themselves.
Geometry is therefore immutable once computed, and repeated queries over
the same region (hot-spot workloads, dashboard refreshes, polling discovery
loops) can skip it.

:class:`PlanCache` is a small LRU keyed on the canonical region geometry
(:meth:`~repro.sfc.regions.Region.canonical_key`, order-insensitive over the
region's boxes), the curve identity, and the engine parameters that shape
the plan (``local_depth`` for the optimized engine, ``max_level`` for the
naive one).  A value is a pair ``(plan, tree)``: the engine's plan — a tuple
of immutable :class:`~repro.sfc.clusters.Cluster` values or of resolved
index ranges — and, for the optimized engine, the query tree: a dict from
``(cluster, min_index)`` to the remainder
:func:`~repro.sfc.clusters.refine_cluster` returned, which runs planned from
the entry fill and replay (the naive engine's tree is ``None``).  A run
fills the tree only when its own plan came from the cache.

Because plans and remainders are pure functions of their keys, **no
invalidation is ever needed**; the only reason entries leave the cache is
LRU capacity pressure.  Ring changes move the ``min_index`` a node asks
for, leaving keys nobody asks for again; a tree is therefore capped
(:data:`~repro.sfc.clusters.TREE_CAPACITY`) and cleared when full.  Hits,
misses, and evictions are published to the active metrics registry
(``plan_cache.hits`` / ``plan_cache.misses`` / ``plan_cache.evictions``,
and ``plan_cache.tree_hits`` per replayed remainder) and each
:class:`~repro.core.metrics.QueryStats` records whether its query was
planned from cache (``plan_cache_hit``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from repro.obs import metrics as obs_metrics
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.regions import Region

__all__ = ["PlanCache", "plan_key"]


def plan_key(
    curve: SpaceFillingCurve,
    region: Region,
    engine_name: str,
    params: Hashable = None,
) -> tuple:
    """Canonical cache key for one query plan.

    Two queries share a key exactly when they resolve the same region over
    the same curve with the same plan-shaping engine parameters — in which
    case cluster generation is deterministic and the plans are identical.
    """
    return (
        engine_name,
        params,
        curve.name,
        curve.dims,
        curve.order,
        region.canonical_key(),
    )


class PlanCache:
    """LRU cache of resolved query plans, with hit/miss/eviction accounting.

    The cache is engine-agnostic: values are opaque to it (the engines
    store ``(plan, tree)`` pairs, see the module docstring) and the
    ``engine_name`` component of the key keeps the plan shapes from
    colliding.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def get(self, key: tuple) -> Any | None:
        """The cached plan for ``key``, or None; counts the lookup."""
        plan = self._entries.get(key)
        reg = obs_metrics.active()
        if plan is None:
            self.misses += 1
            if reg is not None:
                reg.counter("plan_cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if reg is not None:
            reg.counter("plan_cache.hits").inc()
        return plan

    def put(self, key: tuple, plan: Any) -> None:
        """Install a plan, evicting the least-recently-used entry if full."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = plan
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            reg = obs_metrics.active()
            if reg is not None:
                reg.counter("plan_cache.evictions").inc()

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()
