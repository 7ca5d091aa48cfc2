"""Deterministic system specifications for worker-side rebuilds.

The parallel query pool prefers ``fork``-started workers, which inherit the
parent's :class:`~repro.core.system.SquidSystem` as copy-on-write memory and
need nothing pickled.  Platforms without ``fork`` (or pools explicitly
started with ``spawn``/``forkserver``) instead ship a :class:`SystemSpec` —
a compact, picklable description from which every worker rebuilds an
equivalent system:

* the keyword space and curve name (geometry),
* the overlay's node identifiers (membership),
* every stored element (data),
* the default query engine (strategy object).

The rebuild uses :meth:`ChordRing.build`, i.e. *converged* routing state.
For a stabilized system the rebuilt ring routes identically to the
original; a system carrying deliberately stale state (mid-churn, before
stabilization) is only reproduced exactly by fork-shared workers, which is
why the pool treats the spec as the fallback path and documents the
difference rather than hiding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.keywords.space import KeywordSpace
from repro.overlay.chord import ChordRing
from repro.sfc import make_curve
from repro.store import StoredElement, StoreSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import SquidSystem

__all__ = ["SystemSpec"]


@dataclass
class SystemSpec:
    """Everything needed to rebuild an equivalent, queryable system."""

    space: KeywordSpace
    curve_name: str
    node_ids: list[int]
    elements: list[StoredElement]
    default_engine: Any = None
    #: Store backend recipe; workers rebuild per-node stores from it, so a
    #: SQLite parent gets SQLite workers.
    store: StoreSpec = field(default_factory=StoreSpec)
    #: Result-cache configuration as ``(capacity, ttl)``, or None when the
    #: parent system has no result cache.  Only the config
    #: crosses the process boundary (a custom ``clock`` does not pickle and
    #: cached entries are per-chunk state anyway — the pool re-spawns an
    #: empty cache for every chunk regardless of start method).
    result_cache: tuple | None = None

    @classmethod
    def from_system(cls, system: "SquidSystem") -> "SystemSpec":
        """Capture a system's geometry, membership, data, engine, and store."""
        elements: list[StoredElement] = []
        for node_id in sorted(system.stores):
            elements.extend(system.stores[node_id].all_elements())
        cache = system.result_cache
        return cls(
            space=system.space,
            curve_name=system.curve.name,
            node_ids=system.overlay.node_ids(),
            elements=elements,
            default_engine=system.default_engine,
            store=system.store_spec,
            result_cache=(
                (cache.capacity, cache.ttl) if cache is not None else None
            ),
        )

    def build(self) -> "SquidSystem":
        """Rebuild the system: same owners, same data, converged fingers."""
        from repro.core.system import SquidSystem

        from repro.core.resultcache import ResultCache

        curve = make_curve(self.curve_name, self.space.dims, self.space.bits)
        ring = ChordRing.build(curve.index_bits, self.node_ids)
        if self.result_cache is not None:
            capacity, ttl = self.result_cache
            cache: "ResultCache | bool" = ResultCache(capacity=capacity, ttl=ttl)
        else:
            cache = False
        system = SquidSystem(
            self.space,
            ring,
            curve=curve,
            default_engine=self.default_engine,
            rng=0,
            store=self.store,
            result_cache=cache,
        )
        if self.elements:
            owners = ring.owner_many([e.index for e in self.elements])
            per_node: dict[int, list[StoredElement]] = {}
            for element, owner in zip(self.elements, owners):
                per_node.setdefault(int(owner), []).append(element)
            for owner, elems in per_node.items():
                system.stores[owner].add_sorted_bulk(elems)
        return system
