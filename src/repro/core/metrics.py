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
    """Mutable accumulator filled in while a query executes: the always-on
    counting sink of the engine's protocol events.

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

    # -- the counting sink: one method per protocol event -------------------
    # The engine reports every event of a run to its sink exactly once; this
    # always-on sink folds them into the counters above.  A traced run's sink
    # is its :class:`~repro.obs.trace.QueryTrace`, which records the typed
    # event on its span and forwards the same call here.  ``span`` is the
    # trace's span id: this sink opens none, and every span is 0.
    def open(self, parent: int | None, node_id: int, level: int) -> int:
        """A (sub-)cluster at ``level`` is dispatched to ``node_id``."""
        return 0

    def reassign(self, span: int, node_id: int) -> None:
        """A queued sub-query was redelivered to ``node_id``."""

    def sent(
        self, span: int, src: int, dest: int, kind: str,
        path: tuple[int, ...] | None = None, size: int = 1,
    ) -> None:
        """One logical message of ``kind`` (see
        :class:`~repro.obs.trace.MessageSent`) left ``src`` for ``dest``.

        A routed message has its overlay ``path``: every peer on it is a
        routing node, and it costs one hop per edge.  A direct message
        (``path=None``) costs one hop.  A ``"batch"`` carries ``size``
        sibling sub-clusters.
        """
        self.messages += 1
        if path is None:
            self.hops += 1
        else:
            self.routing_nodes.update(path)
            self.hops += len(path) - 1
        if kind == "batch":
            self.aggregated_batches += 1
        elif kind == "retry":
            self.retries += 1
        elif kind == "failover":
            self.failovers += 1
        elif kind == "dup":
            self.messages_duplicated += 1

    def visit(self, span: int, node_id: int, level: int) -> None:
        """``node_id`` processes a cluster at ``level`` (it also routed it)."""
        self.processing_nodes.add(node_id)
        self.routing_nodes.add(node_id)
        self.clusters_processed += 1
        if level > self.max_refinement_level:
            self.max_refinement_level = level

    def scanned(
        self, span: int, node_id: int, curve, cluster, low: int, high: int,
        found: int, done: float | None = None,
    ) -> None:
        """``node_id`` searched its store over ``cluster``'s indices in
        ``[low, high]`` and kept ``found`` matches; ``done`` is when its
        results reached the origin (``None`` on an untimed run)."""
        if found:
            self.data_nodes.add(node_id)
        if done is not None:
            if done > self.completion_time:
                self.completion_time = done
            if found and (
                self.time_to_first_match is None or done < self.time_to_first_match
            ):
                self.time_to_first_match = done

    def refined(self, span: int, node_id: int, level: int, children: int) -> None:
        """``node_id`` refined a cluster at ``level`` into ``children``."""

    def pruned(self, span: int, node_id: int, level: int, reason: str) -> None:
        """The query tree ends at this branch (see :class:`~repro.obs.trace.Pruned`)."""
        self.pruned_branches += 1

    def abandoned(
        self, span: int, node_id: int, curve, cluster, low: int, shed: bool = False,
    ) -> None:
        """Nobody will resolve ``cluster``'s indices from ``low`` on: the
        branch was lost at ``node_id``, or shed by its load guard."""
        if shed:
            self.shed_branches += 1
        else:
            self.lost_branches += 1

    def dropped(self) -> None:
        """The fault plane discarded a transmission (it was charged when sent)."""
        self.messages_dropped += 1

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
