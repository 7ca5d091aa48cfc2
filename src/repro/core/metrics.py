"""Query cost accounting — the paper's four evaluation metrics (§4.1).

* **routing nodes** — every node that handled a query message on the wire;
* **processing nodes** — nodes that refined a (sub-)query and searched their
  local store;
* **data nodes** — processing nodes where at least one match was found;
* **messages** — sub-query messages sent to resolve the query.  Following
  the paper ("each message is a subquery that searches for a fraction of the
  clusters"), a routed sub-query counts as *one* message regardless of how
  many overlay hops it takes — the traversed peers appear as routing nodes
  instead; probe replies and aggregated batches also count one each.  The
  wire-level hop count is tracked separately as ``hops``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import QueryTrace

__all__ = ["QueryStats", "QueryResult", "HotspotMonitor", "merge_index_ranges"]


def merge_index_ranges(
    ranges: "list[tuple[int, int]] | tuple[tuple[int, int], ...]",
) -> tuple[tuple[int, int], ...]:
    """Sort and coalesce inclusive index ranges into a canonical tuple.

    Used for :attr:`QueryResult.unresolved_ranges` and for the footprint
    the result cache files from :attr:`QueryResult.scanned_ranges`:
    overlapping or adjacent ranges merge, so the segments read as a minimal
    cover.
    """
    if not ranges:
        return ()
    ordered = sorted(ranges)
    merged: list[tuple[int, int]] = []
    run_low, run_high = ordered[0]
    for low, high in ordered:
        if low <= run_high + 1:
            if high > run_high:
                run_high = high
        else:
            merged.append((run_low, run_high))
            run_low, run_high = low, high
    merged.append((run_low, run_high))
    return tuple(merged)


@dataclass
class QueryStats:
    """Mutable accumulator filled in while a query executes.

    The canonical read-out is :meth:`as_row` (the paper's five bar-chart
    columns) or :meth:`as_dict` (every field, flattened) — prefer these
    over ad-hoc attribute tuples so downstream tables share one set of
    field names.
    """

    routing_nodes: set[int] = field(default_factory=set)
    processing_nodes: set[int] = field(default_factory=set)
    data_nodes: set[int] = field(default_factory=set)
    messages: int = 0
    hops: int = 0
    clusters_processed: int = 0
    max_refinement_level: int = 0
    #: Branches of the query tree terminated by the paper's pruning
    #: optimization (the processing node owned the whole remainder).
    pruned_branches: int = 0
    #: Aggregated sibling batches sent (the paper's second optimization).
    aggregated_batches: int = 0
    #: Discovery mode only: sub-queries still in flight when the origin
    #: stopped the fan-out.  Their dispatch messages are included in
    #: ``messages`` (they were really sent) but no processing/scan cost was
    #: accrued for them — see :meth:`QueryEngine.execute`.
    aborted_in_flight: int = 0
    #: Simulated time until the last sub-query finished and its results
    #: returned to the origin (0.0 when no latency model is in use).
    completion_time: float = 0.0
    #: Simulated time at which the first match reached the origin (None when
    #: there were no matches or no latency model).
    time_to_first_match: float | None = None
    #: True when the initiator's cluster plan came from the system's
    #: :class:`~repro.core.plancache.PlanCache` instead of being refined
    #: (identical plans either way — the cache only skips the geometry work).
    plan_cache_hit: bool = False
    #: True when the whole result was served from the system's
    #: :class:`~repro.core.resultcache.ResultCache` — no sub-queries were
    #: sent, so the wire-cost fields are all zero for this query.
    result_cache_hit: bool = False
    #: Resilient execution only (all zero on a fault-free run): transmissions
    #: re-sent after a timeout (to the same destination, or re-routed to the
    #: new owner after a crash).
    retries: int = 0
    #: Sub-queries redirected to a ring successor after a destination
    #: exhausted its retry attempts.
    failovers: int = 0
    #: Transmissions the fault plane discarded (each was charged when sent).
    messages_dropped: int = 0
    #: Duplicate deliveries the fault plane produced (receivers deduplicate;
    #: the spurious copy still costs one direct message).
    messages_duplicated: int = 0
    #: Query-tree branches abandoned after the retry budget ran out; their
    #: unscanned curve segments appear in ``QueryResult.unresolved_ranges``.
    lost_branches: int = 0
    #: Query-tree branches shed by an overloaded node's
    #: :class:`~repro.guard.GuardPlane` (bounded queues / token buckets);
    #: like lost branches, their windows land in ``unresolved_ranges`` and
    #: the result reports ``complete=False``.  Always zero when no guard
    #: is configured or no guard tripped.
    shed_branches: int = 0

    def record_completion(self, time: float) -> None:
        if time > self.completion_time:
            self.completion_time = time

    def record_match_time(self, time: float) -> None:
        if self.time_to_first_match is None or time < self.time_to_first_match:
            self.time_to_first_match = time

    def record_path(self, path: tuple[int, ...]) -> None:
        """Charge one routed sub-query: one logical message, per-hop wire cost."""
        self.routing_nodes.update(path)
        self.messages += 1
        self.hops += len(path) - 1

    def record_direct(self, count: int = 1) -> None:
        """Charge direct point-to-point messages (replies, batches)."""
        self.messages += count
        self.hops += count

    def record_processing(self, node_id: int, level: int) -> None:
        self.processing_nodes.add(node_id)
        self.routing_nodes.add(node_id)
        self.clusters_processed += 1
        if level > self.max_refinement_level:
            self.max_refinement_level = level

    def record_data_node(self, node_id: int) -> None:
        self.data_nodes.add(node_id)

    def record_pruned(self, count: int = 1) -> None:
        self.pruned_branches += count

    def record_aggregated_batch(self, count: int = 1) -> None:
        self.aggregated_batches += count

    def record_retry(self, count: int = 1) -> None:
        self.retries += count

    def record_failover(self, count: int = 1) -> None:
        self.failovers += count

    def record_dropped(self, count: int = 1) -> None:
        self.messages_dropped += count

    def record_duplicate(self, count: int = 1) -> None:
        self.messages_duplicated += count

    def record_lost_branch(self, count: int = 1) -> None:
        self.lost_branches += count

    def record_shed_branch(self, count: int = 1) -> None:
        self.shed_branches += count

    # ------------------------------------------------------------------
    # Reduction (batch execution)
    # ------------------------------------------------------------------
    def merge(self, other: "QueryStats") -> "QueryStats":
        """Fold another query's statistics into this accumulator.

        Node sets union, additive costs add, ``max_refinement_level`` and
        ``completion_time`` take the maximum, ``time_to_first_match`` the
        minimum, and ``plan_cache_hit`` becomes true if *any* merged query
        hit the cache.  Merging is associative and order-insensitive (up to
        the boolean), which makes a batch's stats independent of how its
        chunks were distributed over workers.  Returns ``self``.
        """
        self.routing_nodes |= other.routing_nodes
        self.processing_nodes |= other.processing_nodes
        self.data_nodes |= other.data_nodes
        self.messages += other.messages
        self.hops += other.hops
        self.clusters_processed += other.clusters_processed
        self.pruned_branches += other.pruned_branches
        self.aggregated_batches += other.aggregated_batches
        self.aborted_in_flight += other.aborted_in_flight
        self.retries += other.retries
        self.failovers += other.failovers
        self.messages_dropped += other.messages_dropped
        self.messages_duplicated += other.messages_duplicated
        self.lost_branches += other.lost_branches
        self.shed_branches += other.shed_branches
        self.max_refinement_level = max(
            self.max_refinement_level, other.max_refinement_level
        )
        self.completion_time = max(self.completion_time, other.completion_time)
        if other.time_to_first_match is not None:
            if self.time_to_first_match is None:
                self.time_to_first_match = other.time_to_first_match
            else:
                self.time_to_first_match = min(
                    self.time_to_first_match, other.time_to_first_match
                )
        self.plan_cache_hit = self.plan_cache_hit or other.plan_cache_hit
        self.result_cache_hit = self.result_cache_hit or other.result_cache_hit
        return self

    @classmethod
    def reduce(cls, stats: "list[QueryStats] | Any") -> "QueryStats":
        """Merge an iterable of per-query stats into one fresh accumulator."""
        merged = cls()
        for s in stats:
            merged.merge(s)
        return merged

    @property
    def routing_node_count(self) -> int:
        return len(self.routing_nodes)

    @property
    def processing_node_count(self) -> int:
        return len(self.processing_nodes)

    @property
    def data_node_count(self) -> int:
        return len(self.data_nodes)

    def as_row(self) -> dict[str, int]:
        """The paper's bar-chart row for one query (the five §4.1 metrics)."""
        return {
            "routing_nodes": self.routing_node_count,
            "processing_nodes": self.processing_node_count,
            "data_nodes": self.data_node_count,
            "messages": self.messages,
            "hops": self.hops,
        }

    def as_dict(self) -> dict[str, Any]:
        """Every statistic, flattened with canonical field names.

        A strict superset of :meth:`as_row`; node sets appear as counts
        (``routing_nodes`` etc.), matching the row/table convention used by
        the experiments and ``perf/``.
        """
        return {
            **self.as_row(),
            "clusters_processed": self.clusters_processed,
            "max_refinement_level": self.max_refinement_level,
            "pruned_branches": self.pruned_branches,
            "aggregated_batches": self.aggregated_batches,
            "aborted_in_flight": self.aborted_in_flight,
            "completion_time": self.completion_time,
            "time_to_first_match": self.time_to_first_match,
            "plan_cache_hit": self.plan_cache_hit,
            "result_cache_hit": self.result_cache_hit,
            "retries": self.retries,
            "failovers": self.failovers,
            "messages_dropped": self.messages_dropped,
            "messages_duplicated": self.messages_duplicated,
            "lost_branches": self.lost_branches,
            "shed_branches": self.shed_branches,
        }


@dataclass
class HotspotMonitor:
    """Per-node processing-load accounting over a stream of queries."""

    processing_load: dict[int, int] = field(default_factory=dict)

    def record(self, stats: QueryStats) -> None:
        for node_id in stats.processing_nodes:
            self.processing_load[node_id] = self.processing_load.get(node_id, 0) + 1

    def max_load(self) -> int:
        return max(self.processing_load.values(), default=0)

    def total_load(self) -> int:
        return sum(self.processing_load.values())

    def hottest(self, count: int = 5) -> list[tuple[int, int]]:
        """The ``count`` most loaded nodes as ``(node_id, load)`` pairs."""
        ranked = sorted(self.processing_load.items(), key=lambda kv: -kv[1])
        return ranked[:count]


@dataclass
class QueryResult:
    """Matches plus the cost statistics of resolving one query."""

    query: Any
    matches: list
    stats: QueryStats
    #: The structured refinement-tree trace, populated when a
    #: :class:`~repro.obs.trace.Tracer` is attached to the system.
    trace: "QueryTrace | None" = None
    #: False when fault injection prevented some curve segments from being
    #: resolved — the matches are a (certain) subset of the exact answer.
    #: Fault-free executions always report True (the paper's completeness
    #: guarantee).
    complete: bool = True
    #: The inclusive curve-index ranges that went unreached (sorted,
    #: coalesced via :func:`merge_index_ranges`); empty iff ``complete``.
    unresolved_ranges: tuple[tuple[int, int], ...] = ()
    #: The scan window of every node visit of the run, in visit order and
    #: unmerged (each lies inside the arc of the node it was scanned for).
    #: On a complete run their union contains the region's whole curve
    #: image — ``merge_index_ranges(scanned_ranges)`` is the footprint the
    #: result cache invalidates by.  Recorded for that cache only: empty on
    #: a system without one, and on a cache hit.  Bookkeeping, not part of
    #: the answer: excluded from equality and repr.
    scanned_ranges: Sequence[tuple[int, int]] = field(
        default=(), compare=False, repr=False
    )

    @property
    def match_count(self) -> int:
        return len(self.matches)

    @property
    def unresolved_span(self) -> int:
        """Total number of curve indices covered by ``unresolved_ranges``."""
        return sum(high - low + 1 for low, high in self.unresolved_ranges)

    def match_keys(self) -> set:
        """Distinct keyword combinations among the matches."""
        return {element.key for element in self.matches}
