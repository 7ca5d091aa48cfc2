"""Structured query-path tracing.

The paper's evaluation is all about *where* cost arises during distributed
query refinement (§3.4): which node refined which cluster, which messages
were sent, where the query tree was pruned and where sibling sub-clusters
were aggregated into one batch.  :class:`QueryTrace` captures exactly that
as a tree of **spans** — one span per (node, cluster) processing event,
linked to the span that dispatched it — each carrying typed events:

* :class:`ClusterRefined` — a node expanded a cluster into sub-clusters;
* :class:`MessageSent` — a routed sub-query, identity reply, aggregated
  batch, direct hand-off, or a retry, failover or duplicate left a node;
* :class:`Pruned` — the query tree terminated at this span (the node owned
  the whole remainder, the remainder was empty, or discovery mode stopped);
* :class:`Aggregated` — sibling sub-clusters travelled as one batch;
* :class:`LocalScan` — a node searched its local store;
* :class:`BranchLost` — fault injection defeated the retry policy and the
  sub-query was abandoned (its curve ranges appear in
  ``QueryResult.unresolved_ranges``);
* :class:`BranchShed` — an overloaded node's
  :class:`~repro.guard.GuardPlane` refused the sub-query; like a lost
  branch, its curve ranges land in ``QueryResult.unresolved_ranges`` and
  the result is an honest ``complete=False`` partial.

System-lifecycle events (:class:`KeyMoved`, :class:`NodeJoined`,
:class:`NodeLeft`) are recorded on the :class:`Tracer` itself, outside any
query trace.

The engines report each protocol event once, to the run's *event sink*:
one method per event (``open``, ``reassign``, ``sent``, ``visit``,
``scanned``, ``refined``, ``pruned``, ``abandoned``, ``dropped``).  There
are two sinks.  :class:`~repro.core.metrics.QueryStats` is the always-on
counting sink: it folds each event into the paper's counters, opens no span
and allocates nothing.  When ``system.tracer`` is set, the run's sink is a
:class:`QueryTrace` instead, which records the typed event on its span and
forwards the same call to the run's ``QueryStats``.

A trace reconstructs the full refinement tree (:meth:`QueryTrace.to_tree`,
:meth:`QueryTrace.render`, :meth:`QueryTrace.to_json`), and its
:meth:`QueryTrace.totals` agree *exactly* with the ``QueryStats`` of the
same execution by construction: both saw the same calls.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator

from repro.core import planner

__all__ = [
    "ClusterRefined",
    "MessageSent",
    "Pruned",
    "Aggregated",
    "LocalScan",
    "BranchLost",
    "BranchShed",
    "KeyMoved",
    "NodeJoined",
    "NodeLeft",
    "Span",
    "QueryTrace",
    "Tracer",
]


# ----------------------------------------------------------------------
# Typed events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterRefined:
    """A node expanded a cluster: ``children`` sub-clusters were produced."""

    node_id: int
    level: int
    children: int


@dataclass(frozen=True)
class MessageSent:
    """One logical message (mirrors ``QueryStats.messages`` one-for-one).

    ``kind`` is one of ``"probe"`` (routed head of an aggregated group),
    ``"routed"`` (an unaggregated routed sub-query), ``"reply"`` (the
    destination's identity reply enabling aggregation), ``"batch"`` (the
    batched siblings, sent directly), ``"handoff"`` (naive engine's
    successor-chain hand-off), ``"retry"`` (a retransmission after a
    timeout, direct or re-routed to a crashed destination's new owner),
    ``"failover"`` (redirected to the ring successor) or ``"dup"`` (a
    duplicate delivery the fault plane produced).
    ``hops`` is the wire-level hop count charged; ``path`` the overlay path
    for routed messages (``None`` for direct ones).
    """

    src: int
    dest: int
    kind: str
    hops: int
    path: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Pruned:
    """The refinement tree terminated at this span.

    ``reason``: ``"owned"`` — the node owns the cluster's whole remaining
    index range (the paper's pruning optimization); ``"empty"`` — refining
    the remainder produced nothing; ``"limit"`` — discovery mode stopped the
    fan-out.
    """

    node_id: int
    level: int
    reason: str


@dataclass(frozen=True)
class Aggregated:
    """``batch_size`` sibling sub-clusters travelled to ``dest`` together."""

    node_id: int
    dest: int
    batch_size: int


@dataclass(frozen=True)
class LocalScan:
    """A node searched its store over ``ranges`` index ranges; ``found`` hits."""

    node_id: int
    ranges: int
    found: int


@dataclass(frozen=True)
class BranchLost:
    """Fault injection swallowed this sub-query despite the retry policy.

    ``node_id`` is the destination that could not be reached; ``ranges``
    counts the unresolved index ranges recorded for the lost cluster.  A
    span carrying this event is a *lost* branch, not a discovery-mode abort:
    its message really travelled (and is counted), but its work never
    happened and never will.
    """

    node_id: int
    level: int
    ranges: int


@dataclass(frozen=True)
class BranchShed:
    """An overloaded node shed this sub-query instead of processing it.

    ``node_id`` is the node whose load guard refused the work; ``ranges``
    counts the unresolved index ranges recorded for the shed cluster.
    The dispatch message really travelled (and is counted) but the work
    was deliberately not done — the honest-load-shedding counterpart of
    :class:`BranchLost`.
    """

    node_id: int
    level: int
    ranges: int


@dataclass(frozen=True)
class KeyMoved:
    """``count`` keys moved between stores (join/leave/load-balancing)."""

    src: int
    dest: int
    count: int


@dataclass(frozen=True)
class NodeJoined:
    """A node joined the overlay (graceful membership change)."""

    node_id: int


@dataclass(frozen=True)
class NodeLeft:
    """A node left the overlay gracefully (its keys moved first)."""

    node_id: int


#: Events that may appear inside a query trace span.
SpanEvent = (
    ClusterRefined
    | MessageSent
    | Pruned
    | Aggregated
    | LocalScan
    | BranchLost
    | BranchShed
)
#: Events recorded on the tracer itself (system lifecycle).
SystemEvent = KeyMoved | NodeJoined | NodeLeft


# ----------------------------------------------------------------------
# Spans and traces
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One processing event: a node handling one (sub-)cluster.

    ``parent_id`` links to the span that dispatched this cluster (``None``
    for the query root at the initiator); the links reconstruct the paper's
    query refinement tree (Figure 8).
    """

    span_id: int
    parent_id: int | None
    node_id: int
    level: int
    events: list[SpanEvent] = field(default_factory=list)

    def events_of(self, event_type: type) -> list[SpanEvent]:
        return [e for e in self.events if isinstance(e, event_type)]


class QueryTrace:
    """The recorded refinement tree of a single query execution.

    A traced run's event sink: each method records the event's span or
    typed event, if it has one, and forwards the same call to the run's
    counting sink ``stats`` (a :class:`~repro.core.metrics.QueryStats`).
    Every count reaches both from one engine call, which is why
    :meth:`totals` equals the stats.
    """

    def __init__(self, query: str, origin: int, stats) -> None:
        self.query = query
        self.origin = origin
        self.stats = stats
        self.spans: list[Span] = []
        self._children: dict[int, list[int]] = {}

    # -- the event sink (engine-facing) --------------------------------
    def open(self, parent: int | None, node_id: int, level: int) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent, node_id, level))
        if parent is not None:
            self._children.setdefault(parent, []).append(span_id)
        return span_id

    def reassign(self, span: int, node_id: int) -> None:
        """Repoint a span at a different processing node.

        Used by resilient execution when a queued sub-query's destination
        crashed before processing it and the work was redelivered to the
        new owner — the span was opened at dispatch time, before the crash
        was known.
        """
        self.spans[span].node_id = node_id

    def sent(self, span, src, dest, kind, path=None, size=1) -> None:
        events = self.spans[span].events
        hops = 1 if path is None else len(path) - 1
        events.append(MessageSent(src, dest, kind, hops, path))
        if kind == "batch":
            events.append(Aggregated(src, dest, size))
        self.stats.sent(span, src, dest, kind, path, size)

    def visit(self, span, node_id, level) -> None:
        # Processing shows in the trace as the visit's LocalScan or
        # ClusterRefined event.
        self.stats.visit(span, node_id, level)

    def scanned(self, span, node_id, curve, cluster, low, high, found, done=None) -> None:
        count = planner.pieces(curve, cluster, low, high)
        self.spans[span].events.append(LocalScan(node_id, count, found))
        self.stats.scanned(span, node_id, curve, cluster, low, high, found, done)

    def refined(self, span, node_id, level, children) -> None:
        self.spans[span].events.append(ClusterRefined(node_id, level, children))
        self.stats.refined(span, node_id, level, children)

    def pruned(self, span, node_id, level, reason) -> None:
        self.spans[span].events.append(Pruned(node_id, level, reason))
        self.stats.pruned(span, node_id, level, reason)

    def abandoned(self, span, node_id, curve, cluster, low, shed=False) -> None:
        event = BranchShed if shed else BranchLost
        count = planner.pieces(curve, cluster, low, curve.size - 1)
        self.spans[span].events.append(event(node_id, cluster.level, count))
        self.stats.abandoned(span, node_id, curve, cluster, low, shed)

    def dropped(self) -> None:
        self.stats.dropped()

    # -- reconstruction -------------------------------------------------
    @property
    def root(self) -> Span:
        return self.spans[0]

    def children(self, span_id: int) -> list[Span]:
        return [self.spans[i] for i in self._children.get(span_id, [])]

    def iter_events(self) -> Iterator[tuple[Span, SpanEvent]]:
        for span in self.spans:
            for event in span.events:
                yield span, event

    def events_of(self, event_type: type) -> list[SpanEvent]:
        return [e for _, e in self.iter_events() if isinstance(e, event_type)]

    def to_tree(self) -> dict[str, Any]:
        """The refinement tree as nested dictionaries (JSON-ready)."""

        def event(e: SpanEvent) -> dict[str, Any]:
            data = {"type": type(e).__name__, **asdict(e)}
            if isinstance(data.get("path"), tuple):
                data["path"] = list(data["path"])
            return data

        def node(span: Span) -> dict[str, Any]:
            return {
                "span": span.span_id,
                "node": span.node_id,
                "level": span.level,
                "events": [event(e) for e in span.events],
                "children": [node(c) for c in self.children(span.span_id)],
            }

        return {
            "query": self.query,
            "origin": self.origin,
            "tree": node(self.root) if self.spans else None,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_tree(), indent=indent)

    def render(self) -> str:
        """Human-readable indented rendering of the refinement tree."""
        lines = [f"query {self.query!r} from node {self.origin}"]

        def walk(span: Span, depth: int) -> None:
            scans = span.events_of(LocalScan)
            found = sum(e.found for e in scans)
            msgs = len(span.events_of(MessageSent))
            pruned = span.events_of(Pruned)
            lost = span.events_of(BranchLost)
            shed = span.events_of(BranchShed)
            tags = []
            if found:
                tags.append(f"found={found}")
            if msgs:
                tags.append(f"msgs={msgs}")
            if pruned:
                tags.append(f"pruned:{pruned[0].reason}")
            if lost:
                tags.append("lost")
            if shed:
                tags.append("shed")
            suffix = f"  [{', '.join(tags)}]" if tags else ""
            lines.append(
                f"{'  ' * depth}- node {span.node_id} (level {span.level})"
                f"{suffix}"
            )
            for child in self.children(span.span_id):
                walk(child, depth + 1)

        if self.spans:
            walk(self.root, 1)
        return "\n".join(lines)

    # -- accounting ------------------------------------------------------
    def totals(self) -> dict[str, Any]:
        """Aggregate the trace back into ``QueryStats``-equivalent totals.

        ``messages``/``hops`` sum the :class:`MessageSent` events; the node
        sets are derived from spans, scan hits, and message paths.  They
        equal the :class:`~repro.core.metrics.QueryStats` of the same run by
        construction (every event the trace recorded was forwarded to it),
        and tests hold them to it: the trace is a lossless decomposition of
        the flat counters.
        """
        messages = 0
        hops = 0
        routing: set[int] = set()
        processing: set[int] = set()
        data: set[int] = set()
        pruned = 0
        batches = 0
        aborted = 0
        lost = 0
        shed = 0
        for span, event in self.iter_events():
            if isinstance(event, MessageSent):
                messages += 1
                hops += event.hops
                if event.path is not None:
                    routing.update(event.path)
            elif isinstance(event, LocalScan):
                if event.found:
                    data.add(event.node_id)
            elif isinstance(event, Pruned):
                pruned += 1
            elif isinstance(event, Aggregated):
                batches += 1
            elif isinstance(event, BranchShed):
                shed += 1
        for span in self.spans:
            routing.add(span.node_id)
            # A span whose node never scanned or refined was dispatched but
            # abandoned: a fault-injected *lost* branch when it carries a
            # BranchLost event, a deliberately *shed* branch when it carries
            # a BranchShed event (counted above, one per event), and a
            # discovery-mode early exit otherwise.  Its message is counted
            # either way; its processing never happened.
            if any(
                isinstance(e, (LocalScan, ClusterRefined)) for e in span.events
            ):
                processing.add(span.node_id)
            elif any(isinstance(e, BranchLost) for e in span.events):
                lost += 1
            elif not any(isinstance(e, BranchShed) for e in span.events):
                aborted += 1
        return {
            "messages": messages,
            "hops": hops,
            "routing_nodes": routing,
            "processing_nodes": processing,
            "data_nodes": data,
            "pruned_branches": pruned,
            "aggregated_batches": batches,
            "aborted_in_flight": aborted,
            "lost_branches": lost,
            "shed_branches": shed,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTrace(query={self.query!r}, spans={len(self.spans)})"


class Tracer:
    """Collects query traces and system lifecycle events.

    Attach with :meth:`SquidSystem.attach_tracer`; every subsequent query
    produces a :class:`QueryTrace` (also exposed as ``result.trace``), and
    membership/key-movement operations append :data:`SystemEvent` records.
    """

    def __init__(self, keep: int | None = None) -> None:
        #: Bound on retained query traces (oldest dropped); None = unbounded.
        self.keep = keep
        self.traces: list[QueryTrace] = []
        self.system_events: list[SystemEvent] = []

    def begin(self, query: str, origin: int, stats) -> QueryTrace:
        """Open a trace for one query execution (called by the engines),
        forwarding to the run's ``stats``."""
        trace = QueryTrace(query, origin, stats)
        self.traces.append(trace)
        if self.keep is not None and len(self.traces) > self.keep:
            del self.traces[: len(self.traces) - self.keep]
        return trace

    def record(self, event: SystemEvent) -> None:
        """Record a system lifecycle event (join/leave/key movement)."""
        self.system_events.append(event)

    @property
    def last(self) -> QueryTrace | None:
        """The most recent query trace, if any."""
        return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        self.traces.clear()
        self.system_events.clear()
