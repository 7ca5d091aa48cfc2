"""Query engines: naive per-cluster messaging vs. the paper's optimized
distributed refinement (§3.4).

Both engines return the exact match set; they differ in *where* clusters are
generated and hence in cost:

* :class:`NaiveEngine` — the paper's strawman (§3.4.1): the initiator resolves
  the query's clusters completely and sends one message per cluster.  Cost
  grows with the number of clusters, which "can be prohibitive".
* :class:`OptimizedEngine` — the paper's contribution (§3.4.2): cluster
  generation is *distributed*.  The initiator refines the query once and
  sends each level-1 cluster toward the node owning its identifier; each
  receiving node searches its local store, then refines only the remainder
  of the cluster that lies beyond its own ring range, forwarding the
  sub-clusters onward.  Two optimizations apply:

  - **pruning** — when a node owns a cluster's entire remaining index range,
    the recursion stops there (the query tree is pruned at that branch);
    since load balancing makes nodes follow the data distribution, sparse
    subtrees terminate at shallow depth;
  - **aggregation** — sibling sub-clusters are sorted by identifier, the
    first is probed into the network, the destination replies with its
    identity, and all sub-clusters belonging to that destination travel as a
    single batched message.

Correctness argument (tested exhaustively against a brute-force oracle): the
covering region contains the coordinates of every matching key; clusters
cover the region's entire curve image; each forwarded remainder is trimmed
only below the processing node's identifier, whose owned range was just
scanned — so every index of every cluster is scanned by exactly the node
that owns it, and the exact-match post-filter removes quantization
spillover.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from operator import itemgetter
from time import perf_counter
from typing import TYPE_CHECKING

from repro.core.metrics import QueryResult, QueryStats, merge_index_ranges
from repro.core.plancache import plan_key
from repro.errors import EngineError
from repro.guard.plane import priority_rank
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs.trace import (
    Aggregated,
    BranchLost,
    BranchShed,
    ClusterRefined,
    LocalScan,
    MessageSent,
    Pruned,
    QueryTrace,
)
from repro.sfc.clusters import (
    Cluster,
    FullRange,
    refine_cluster,
    resolve_clusters,
    root_cluster,
)
from repro.util.rng import RandomLike, as_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.replication import ReplicationManager
    from repro.core.system import SquidSystem
    from repro.faults import FaultPlane, RetryPolicy
    from repro.guard import GuardPlane

__all__ = [
    "QueryEngine",
    "NaiveEngine",
    "OptimizedEngine",
    "EngineRun",
    "drive_sync",
    "default_hop_budget",
    "make_engine",
]


def default_hop_budget(n_nodes: int) -> int:
    """Default per-query routing hop budget for a ring of ``n_nodes``.

    Healthy queries process a number of work entries bounded by the query
    tree's width (itself bounded by node count times per-node cluster
    fan-in), so a generous multiple of the ring size never triggers; a
    routing *cycle* — stale successor/predecessor pointers after a crash
    that was never stabilized — regenerates entries forever and exhausts
    any finite budget.  Exhaustion degrades the query to an honest
    ``complete=False`` partial result instead of a hang.
    """
    return max(1024, 64 * n_nodes)


def _report_query_metrics(engine_name: str, stats: QueryStats) -> None:
    """Publish one query's cost into the active metrics registry, if any."""
    reg = obs_metrics.active()
    if reg is None:
        return
    reg.counter(f"engine.{engine_name}.queries").inc()
    reg.counter("query.messages.total").inc(stats.messages)
    reg.counter("query.pruned_branches.total").inc(stats.pruned_branches)
    reg.counter("query.aggregated_batches.total").inc(stats.aggregated_batches)
    reg.histogram("query.messages").observe(stats.messages)
    reg.histogram("query.hops").observe(stats.hops)
    reg.histogram("query.processing_nodes").observe(stats.processing_node_count)
    # Resilience counters appear only once a fault actually bit: fault-free
    # runs (and inert fault planes) leave the registry byte-identical to a
    # plain engine's, which the zero-fault identity tests rely on.
    if stats.retries:
        reg.counter("query.retries.total").inc(stats.retries)
    if stats.failovers:
        reg.counter("query.failovers.total").inc(stats.failovers)
    if stats.lost_branches:
        reg.counter("query.lost_branches.total").inc(stats.lost_branches)
    if stats.shed_branches:
        reg.counter("query.shed_branches.total").inc(stats.shed_branches)


def _window(curve, cluster: Cluster, low: int, high: int):
    """The cluster's per-piece index ranges within the window ``[low, high]``.

    Pieces are gap-free, so their union is the one range ``[max(min_index,
    low), min(max_index, high)]`` a visit scans; the per-piece form is what
    abandoned branches record and what trace events count.
    """
    out = []
    for lo, hi in cluster.iter_index_ranges(curve):
        clipped_lo = max(lo, low)
        clipped_hi = min(hi, high)
        if clipped_lo <= clipped_hi:
            out.append((clipped_lo, clipped_hi))
    return out


class EngineRun:
    """Mutable per-query state threaded through the engine's run API.

    A run decouples *engine logic* from *message delivery*: the engine
    mutates this state in :meth:`QueryEngine.begin_run` /
    :meth:`QueryEngine.process_message` / :meth:`QueryEngine.finish_run`,
    while a transport decides when and where each queued work entry is
    delivered.  :func:`drive_sync` is the in-process synchronous transport
    (a FIFO deque — the original simulation order);
    :class:`repro.net.transport.AsyncioTransport` delivers the same entries
    through per-node asyncio inboxes.

    ``outbox`` collects the work entries posted by the last engine call;
    the transport drains it with :meth:`take_outbox` after every call.
    ``budget``/``used`` implement the routing hop budget (see
    :func:`default_hop_budget`); ``exhausted`` latches once it trips.
    """

    __slots__ = (
        "query",
        "region",
        "keep",
        "origin_id",
        "stats",
        "matches",
        "trace",
        "root_span",
        "limit",
        "plane",
        "guard",
        "priority",
        "unresolved",
        "scanned",
        "budget",
        "used",
        "outbox",
        "exhausted",
        "early_result",
        "ranges",
    )

    def __init__(self) -> None:
        self.query = None
        self.region = None
        #: ``space.keeper(query)``: the data-node post-filter, bound once.
        self.keep = None
        self.origin_id = 0
        self.stats = QueryStats()
        self.matches: list = []
        self.trace: QueryTrace | None = None
        self.root_span = 0
        self.limit: int | None = None
        self.plane = None
        #: The engine's :class:`~repro.guard.GuardPlane` when it is active,
        #: else ``None`` — mirroring ``plane``, an inert guard is bypassed
        #: entirely so unguarded runs stay on the exact same code path.
        self.guard = None
        #: Numeric priority rank of this query (0 = interactive).
        self.priority = 0
        self.unresolved: list[tuple[int, int]] = []
        #: Every visit's scan window, in visit order (unmerged): becomes
        #: :attr:`QueryResult.scanned_ranges`.  Kept only for a system with
        #: a result cache, the footprint's one consumer — a few hundred
        #: tuples per broad query are not free to a caller who keeps results.
        self.scanned: list[tuple[int, int]] | None = None
        self.budget = 0
        self.used = 0
        self.outbox: list = []
        self.exhausted = False
        self.early_result: QueryResult | None = None
        #: Naive engine only: the fully resolved cluster ranges.
        self.ranges: list[tuple[int, int]] = []

    def take_outbox(self) -> list:
        """Drain and return the entries posted since the last drain."""
        out = self.outbox
        self.outbox = []
        return out

    def _charge_hop(self) -> bool:
        """Consume one unit of the hop budget; False once it is exhausted.

        The first exhaustion is counted in the active metrics registry —
        like the resilience counters, the metric appears only when the
        budget actually bites, keeping fault-free registries byte-identical.
        """
        if self.used >= self.budget:
            if not self.exhausted:
                self.exhausted = True
                reg = obs_metrics.active()
                if reg is not None:
                    reg.counter("query.hop_budget_exhausted.total").inc()
            return False
        self.used += 1
        return True


def drive_sync(engine: "QueryEngine", system: "SquidSystem", run: EngineRun) -> QueryResult:
    """Synchronous in-process delivery: pump the run's queue in FIFO order.

    This reproduces the original single-process simulation exactly — every
    posted work entry is processed in post order — and is what
    ``engine.execute`` (and therefore ``SquidSystem.query``) runs on.
    """
    guard = run.guard
    work: deque = deque(run.take_outbox())
    if guard is not None:
        for queued in work:
            guard.note_posted(engine.entry_node(run, queued))
    while work:
        entry = work.popleft()
        if not engine.process_message(system, run, entry):
            # Discovery-mode stop: outstanding branches are abandoned; their
            # dispatch messages are already (truthfully) counted.
            run.stats.aborted_in_flight = len(work)
            if guard is not None:
                for queued in work:
                    guard.note_abandoned(engine.entry_node(run, queued))
            break
        fresh = run.take_outbox()
        if guard is not None:
            for queued in fresh:
                guard.note_posted(engine.entry_node(run, queued))
        work.extend(fresh)
    return engine.finish_run(system, run)


# What one node visit (:meth:`QueryEngine._visit`) came to; each engine
# reacts to these in its own ``process_message``.
_SHED = "shed"  # the node's load guard refused the work
_LOST = "lost"  # hop budget spent, or a dead processor could not be replaced
_LIMIT = "limit"  # scanned; the discovery limit is now reached
_OWNED = "owned"  # scanned; the covered node owns the rest of the cluster
_CONTINUE = "continue"  # scanned; part of the cluster lies beyond the node


class QueryEngine(ABC):
    """One query-resolution core; the engines are two strategies over it.

    The core is what every engine does the same way: open a run
    (:meth:`begin_run`), handle one node visit (:meth:`_visit`), fight the
    fault plane for one message (:meth:`_deliver_resilient`), seal the
    result (:meth:`finish_run`).  An engine supplies *plan* (:meth:`_plan`:
    what the initiator resolves before the first message) and *continue*
    (:meth:`_start`, :meth:`process_message`: where a visit's unresolved
    remainder goes, and what a shed, lost or limit-stopped visit means).
    """

    name: str = "abstract"

    # Switched on only by OptimizedEngine's constructor (documented there);
    # the shared visit and delivery code reads them from the instance.
    latency_model = retry = replication = None
    processing_delay = 0.0

    def __init__(self, hop_budget: int | None = None, guard: "GuardPlane | None" = None) -> None:
        #: Per-query cap on node visits; ``None`` derives
        #: :func:`default_hop_budget` from the ring size at query time (the
        #: naive engine adds its cluster count).  Routing cycles (post-crash,
        #: pre-stabilization stale pointers) exhaust the budget and degrade
        #: to ``complete=False`` with the abandoned windows in
        #: ``unresolved_ranges`` — never a hang.
        if hop_budget is not None and hop_budget < 1:
            raise EngineError(f"hop_budget must be >= 1, got {hop_budget}")
        self.hop_budget = hop_budget
        #: Optional :class:`~repro.guard.GuardPlane` enforcing per-node
        #: bounded work queues and token-bucket throttles.  ``None`` — or
        #: an *inactive* plane (no limits configured) — leaves execution
        #: bit-identical to an unguarded engine; an active plane sheds
        #: branch work at overloaded nodes, honestly reported via
        #: ``complete=False`` / ``unresolved_ranges`` / ``shed_branches``.
        self.guard = guard

    def execute(
        self,
        system: "SquidSystem",
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> QueryResult:
        """Resolve ``query``; return matches plus cost statistics.

        ``limit`` switches to *discovery mode*: resolution stops as soon as
        at least ``limit`` matches are known (a few extra may be returned —
        the batch that crossed the threshold is kept whole).  Without a
        limit the paper's completeness guarantee applies: every match is
        returned.

        ``priority`` is the query's class (``"interactive"`` / ``"batch"``
        / ``"background"``, a rank, or ``None`` = interactive) consulted by
        the engine's :class:`~repro.guard.GuardPlane`, when one is armed,
        to decide what an overloaded node sheds first.  Without a guard the
        priority is carried but has no effect on execution.

        Discovery-mode cost semantics (``stats`` stays truthful under the
        early exit):

        * ``messages``/``hops``/``routing_nodes`` count everything actually
          sent up to the stop, *including* sub-queries dispatched but not
          yet processed when the origin aborted the fan-out — those were
          really on the wire; their number is reported separately as
          ``stats.aborted_in_flight``.
        * ``processing_nodes``/``data_nodes``/``clusters_processed`` cover
          only work actually performed; abandoned branches contribute
          nothing.
        * ``completion_time`` is the completion of the last *processed*
          sub-query (abandoned branches are never waited on).
        """
        run = self.begin_run(
            system, query, origin=origin, rng=rng, limit=limit,
            priority=priority,
        )
        return drive_sync(self, system, run)

    # ------------------------------------------------------------------
    # Transport-facing run API (engine logic without message delivery)
    # ------------------------------------------------------------------
    def begin_run(
        self,
        system: "SquidSystem",
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> EngineRun:
        """Start a query run: initiator-side setup plus the first dispatch.

        Returns an :class:`EngineRun` whose ``outbox`` holds the initial
        work entries; the transport delivers each entry (in post order) to
        :meth:`process_message` and calls :meth:`finish_run` once no entry
        is outstanding.
        """
        if limit is not None and limit < 1:
            raise EngineError(f"limit must be >= 1, got {limit}")
        run = EngineRun()
        run.priority = priority_rank(priority)
        run.limit = limit
        # Inertness contract: a plane is carried by the run only when it can
        # actually do something.  An absent or inactive guard (here) or
        # fault plane (OptimizedEngine._start) is never consulted, so such
        # runs are bit-identical — results, stats, metrics, RNG consumption
        # — to runs of an engine built without one.
        guard = self.guard
        run.guard = guard if guard is not None and guard.active else None
        if system.result_cache is not None:
            run.scanned = []
        q, region = self._bind_query(system, run, query)
        curve = system.curve
        stats = run.stats
        origin_id = run.origin_id = self._pick_origin(system, origin, rng)
        run.budget = (
            self.hop_budget
            if self.hop_budget is not None
            else default_hop_budget(len(system.overlay.nodes))
        )
        tracer = system.tracer
        trace = run.trace = (
            tracer.begin(str(q), origin_id) if tracer is not None else None
        )
        # The initiator performs the first step of the query tree (paper
        # Figure 8) but holds none of the clusters itself yet.  Its plan is
        # pure geometry — a function of (curve, region, plan parameter)
        # only — so repeated queries reuse it from the system's plan cache;
        # clusters are immutable, making the shared plan safe.
        stats.record_processing(origin_id, 0)
        root_span = run.root_span = (
            trace.new_span(None, origin_id, 0) if trace is not None else 0
        )
        cache = system.plan_cache
        plan = None
        if cache is not None:
            cache_key = plan_key(curve, region, self.name, self._plan_param())
            cached = cache.get(cache_key)
            if cached is not None:
                plan = list(cached)
                stats.plan_cache_hit = True
        if plan is None:
            plan = self._plan(curve, region)
            if cache is not None:
                cache.put(cache_key, tuple(plan))
        if trace is not None:
            trace.emit(root_span, ClusterRefined(origin_id, 0, len(plan)))
        self._start(system, run, plan)
        return run

    @abstractmethod
    def _plan_param(self):
        """The engine parameter that, with curve and region, fixes the plan."""

    @abstractmethod
    def _plan(self, curve, region) -> list:
        """*Plan*: what the initiator resolves before sending anything."""

    @abstractmethod
    def _start(self, system: "SquidSystem", run: EngineRun, plan: list) -> None:
        """Post the run's first work entries for ``plan`` to its outbox."""

    @abstractmethod
    def process_message(self, system: "SquidSystem", run: EngineRun, entry) -> bool:
        """Handle one delivered work entry, posting follow-ups to the outbox.

        Returns False when the run must stop early (discovery-mode limit
        reached); the transport then records the outstanding entry count as
        ``stats.aborted_in_flight`` and discards the queue.
        """

    def entry_node(self, run: EngineRun, entry) -> int:
        """The node whose inbox should receive ``entry`` (transport routing)."""
        return entry[0]  # work entries lead with their processing node

    def finish_run(self, system: "SquidSystem", run: EngineRun) -> QueryResult:
        """Seal a run: report metrics and assemble the :class:`QueryResult`."""
        if run.early_result is not None:
            return run.early_result
        if run.exhausted and run.matches:
            # A routing cycle re-scans stores it already visited, so the
            # abandoned run may have collected the same stored elements
            # repeatedly; restore set semantics (stores hand out stable
            # object identities) while keeping first-seen order.
            seen: set[int] = set()
            run.matches = [
                m for m in run.matches
                if id(m) not in seen and not seen.add(id(m))
            ]
        _report_query_metrics(self.name, run.stats)
        resolved_gaps = merge_index_ranges(run.unresolved)
        return QueryResult(
            run.query,
            run.matches,
            run.stats,
            run.trace,
            complete=not resolved_gaps,
            unresolved_ranges=resolved_gaps,
            scanned_ranges=run.scanned or (),
        )

    def result_cache_params(self):
        """Hashable engine parameters that shape the *answer* of a query.

        Used as the engine component of :func:`repro.core.resultcache.result_key`.
        Engines whose configuration can change which matches are returned
        (never the case for the stock engines — only cost varies) still
        include their plan-shaping parameters so cached entries are reused
        exactly when the plan cache would reuse a plan.  ``None`` (the base
        default) opts the engine out of result caching entirely.
        """
        return None

    def _pick_origin(
        self, system: "SquidSystem", origin: int | None, rng: RandomLike
    ) -> int:
        ids = system.overlay.node_ids()
        if not ids:
            raise EngineError("cannot query an empty system")
        if origin is not None:
            if origin not in system.overlay.nodes:
                raise EngineError(f"origin {origin} is not a live node")
            return origin
        gen = as_generator(rng)
        return ids[int(gen.integers(0, len(ids)))]

    @staticmethod
    def _bind_query(system: "SquidSystem", run: EngineRun, query):
        """Bind ``query`` to the system's space once for the whole run:
        the type-checked AST, its covering region, and the post-filter."""
        bound = system.space.bind(query)
        run.query = bound.query
        run.region = bound.region
        run.keep = system.space.keeper(bound)
        return bound.query, bound.region

    # ------------------------------------------------------------------
    # The node visit (shared by both engines)
    # ------------------------------------------------------------------
    def _visit(self, system: "SquidSystem", run: EngineRun, entry) -> tuple[str, int, int, float]:
        """One node handles one delivered sub-query: the per-node step of the
        protocol, the same for every engine.

        ``entry`` is ``(node_id, cluster, low, arrival_time, span, covered,
        replica_of, sender_id)``: ``cluster`` reaches ``node_id``, routed by
        ``low`` (its first index of interest), at ``arrival_time`` under
        trace span ``span``.  ``covered`` is the identifier whose key range
        this visit resolves — the processor's own id normally, or the
        unreachable peer's id on a failover visit (served from replicas;
        ``replica_of`` names the peer); the scan window and the ownership
        test use the *covered* range.  ``sender_id`` allows redelivery when
        the processor crashes while the entry is still queued.

        Returns ``(outcome, node_id, covered, arrival_time)``: one of the
        ``_SHED`` … ``_CONTINUE`` constants, then who processed the entry
        for whom and when, once any redelivery is done.
        """
        (node_id, cluster, low, arrival_time, span,
         covered, replica_of, sender_id) = entry
        curve = system.curve
        overlay = system.overlay
        stats = run.stats
        trace = run.trace
        if run.guard is not None and self._refused(run, node_id):
            # The node's load guard refused the work: the entry's remaining
            # window is shed — deliberately and honestly — into
            # ``unresolved_ranges``.  Shedding a branch is cheap by design:
            # no scan, no refinement, no dispatch.
            rest = _window(curve, cluster, low, curve.size - 1)
            self._abandon(run, rest, cluster.level, span, node_id, shed=True)
            return _SHED, node_id, covered, arrival_time
        # Two ways to lose the branch before anyone handles it.  The hop
        # budget is exhausted: a routing cycle (or a pathological plan)
        # regenerated work beyond any healthy query's size …
        lost = not run._charge_hop()
        if not lost and run.plane is not None and node_id not in overlay.nodes:
            # … or the processor crashed (a fault on some other branch)
            # after this sub-query was sent but before it was handled.  The
            # sender times out and re-routes to whoever owns the key now;
            # without a retry policy the branch is simply lost.
            src = sender_id if sender_id in overlay.nodes else run.origin_id
            delivery = self._deliver_resilient(
                system, run, src, node_id, low, span, charge_route=True
            )
            if delivery is None:
                lost = True
            else:
                node_id, covered, replica_of, penalty = delivery
                arrival_time += penalty
                if trace is not None:
                    trace.reassign(span, node_id)
        if lost:
            # The entry's remaining window is honestly abandoned; with no
            # new dispatches the queue drains and the query returns
            # ``complete=False`` instead of looping forever.
            rest = _window(curve, cluster, low, curve.size - 1)
            self._abandon(run, rest, cluster.level, span, node_id)
            return _LOST, node_id, covered, arrival_time
        stats.record_processing(node_id, cluster.level)
        model = self.latency_model
        if model is not None:
            # Completion time of this processing event, results back at origin.
            done_time = (
                arrival_time
                + self._local_delay(run, node_id)
                + model.latency(node_id, run.origin_id)
            )
            stats.record_completion(done_time)
        if covered == node_id:
            pred = overlay.nodes[node_id].predecessor
        else:
            # Failover visit: `covered` is the unreachable-but-live
            # peer's identifier; ask the ring for its predecessor.
            pred = overlay.predecessor_id(covered)
        # The node searches the slice of the cluster it is responsible
        # for on this arrival: up to the covered identifier, or to the
        # end of the index space when the delivery wrapped around the
        # ring (a first-node visit for the tail segment) or the node is
        # alone on it (its arc is the whole space, above its identifier
        # too).  Windowing keeps the chain's scans disjoint even when it
        # wraps past 0.  A cluster is one contiguous curve segment, so its
        # slice is one index range (or nothing).
        window_high = (
            covered if low <= covered and pred != covered else curve.size - 1
        )
        max_index = cluster.max_index(curve)
        scan_low = max(cluster.min_index(curve), low)
        scan_high = min(max_index, window_high)
        ranges = [(scan_low, scan_high)] if scan_low <= scan_high else []
        if run.scanned is not None:
            run.scanned += ranges
        found = self._scan_cluster(system, node_id, ranges, run.keep)
        if replica_of is not None:
            # Failover visit: this node stands in for an unreachable
            # peer.  Its replica store restores the peer's share of the
            # data; without replication that share is truthfully
            # reported as unresolved (the fan-out continues regardless).
            served, ok = self._scan_replicas(node_id, ranges, run.keep)
            if ok:
                found = found + served
            else:
                run.unresolved.extend(ranges)
        if trace is not None:
            # The event has always carried the cluster's piece count in the
            # window, not the number of ranges scanned (now at most one);
            # tests/core/engine_golden.json, recorded before, is the check.
            pieces = len(_window(curve, cluster, low, window_high))
            trace.emit(span, LocalScan(node_id, pieces, len(found)))
        if found:
            run.matches.extend(found)
            stats.record_data_node(node_id)
            if model is not None:
                stats.record_match_time(done_time)
            if run.limit is not None and len(run.matches) >= run.limit:
                return _LIMIT, node_id, covered, arrival_time
        # Ownership ("pruning"): the branch terminates when the covered
        # node owns the whole remaining index range of the cluster.
        # Linearly that means the cluster's last index precedes the
        # covered identifier; at the ring's wrap point (a node owning
        # (pred, 2^m) ∪ [0, id]) it means the cluster's remaining part
        # started beyond the predecessor, since linear indices never wrap.
        if (
            max_index <= covered
            or pred == covered  # single node: owns (and scanned) everything
            or low > covered  # wrapped: scanned to the end of space
        ):
            # The wrap test must come from the scan window itself, not the
            # node's predecessor pointer: after a crash the stale pointer
            # can name a dead peer with a larger identifier, the prune
            # misses, and the tail segment is re-dispatched and re-scanned
            # (duplicated matches).  A wrapped arrival already scanned
            # [low, 2^m), which contains every remaining linear index of
            # the cluster.
            return _OWNED, node_id, covered, arrival_time
        return _CONTINUE, node_id, covered, arrival_time

    @staticmethod
    def _refused(run: EngineRun, node_id: int) -> bool:
        """True when ``node_id``'s (armed) load guard sheds the entry it is
        about to handle; asked exactly once per delivered entry."""
        return not run.guard.admit(node_id, run.priority)

    @staticmethod
    def _abandon(run: EngineRun, ranges, level: int, span: int, node_id: int, shed=False) -> None:
        """Account one branch nobody will resolve: its index ``ranges`` become
        unresolved and the span is tagged — *lost* (undeliverable, or over the
        hop budget) or *shed* (the load guard's deliberate decision)."""
        run.unresolved.extend(ranges)
        if shed:
            run.stats.record_shed_branch()
            event = BranchShed(node_id, level, len(ranges))
        else:
            run.stats.record_lost_branch()
            event = BranchLost(node_id, level, len(ranges))
        if run.trace is not None:
            run.trace.emit(span, event)

    @staticmethod
    def _filter_scan(store, ranges, keep) -> list:
        """The data-node step: scan ``store`` over the visit's window and
        keep the elements that satisfy the query — the run's bulk post-filter
        over the store's candidate list.  Stored keys were normalized at
        publish, which is all the filter requires.  ``scan_ranges`` is looked
        up on the store instance and gets the ranges alone: observers (the
        benchmark's counters) wrap exactly that call."""
        return keep(store.scan_ranges(ranges))

    @classmethod
    def _scan_cluster(cls, system: "SquidSystem", node_id: int, ranges, keep) -> list:
        """Search one node's store over the visit's window.

        Timed under the ``engine.scan`` phase when profiling is enabled.
        """
        prof = obs_profile._PROFILER
        start = perf_counter() if prof is not None else 0.0
        found = cls._filter_scan(system.stores[node_id], ranges, keep)
        if prof is not None:
            prof.record("engine.scan", perf_counter() - start)
        return found

    def _scan_replicas(self, node_id: int, ranges, keep) -> tuple[list, bool]:
        """Serve an unreachable peer's share from this node's replica store.

        Returns ``(matches, served)``; ``served`` is False when no replica
        store is available (no manager attached, or the node holds none) —
        the caller then records the window as unresolved.
        """
        manager = self.replication
        if manager is None:
            return [], False
        store = manager.replicas.get(node_id)
        if store is None:
            return [], False
        return self._filter_scan(store, ranges, keep), True

    def _local_delay(self, run: EngineRun, node_id: int) -> float:
        """Local processing time at ``node_id`` (the plane's slow peers take longer)."""
        delay = self.processing_delay
        if delay and run.plane is not None:
            delay *= run.plane.slow_factor(node_id)
        return delay

    def _path_latency(self, path: tuple[int, ...]) -> float:
        if self.latency_model is None:
            return 0.0
        return self.latency_model.path_latency(path)

    # ------------------------------------------------------------------
    # Resilient delivery (runs that carry an active fault plane only)
    # ------------------------------------------------------------------
    def _deliver_resilient(
        self,
        system: "SquidSystem",
        run: EngineRun,
        sender_id: int,
        dest: int,
        key: int,
        span: int,
        allow_failover: bool = True,
        charge_route: bool = False,
    ) -> tuple[int, int, int | None, float] | None:
        """Push one physical message through the fault plane, fighting back
        per the retry policy.

        Returns the *delivery outcome* ``(processor, covered, replica_of,
        time_penalty)`` — ``covered`` being the identifier whose range the
        visit resolves and ``replica_of`` its id when the processor is a
        failover stand-in — or ``None`` when the message is definitively
        lost.  (A run without a plane has the identity outcome
        ``(dest, dest, None, 0.0)`` for every message and never gets here.)

        The *first* transmission must already be charged by the caller (the
        routed probe or the direct batch); retries, failovers, and crash
        re-routes are charged here.  With ``charge_route`` the message
        starts from a timed-out crashed destination: the sender re-resolves
        the owner and the (charged) re-route happens here too.
        """
        plane = run.plane
        policy = self.retry
        overlay = system.overlay
        stats = run.stats
        trace = run.trace
        penalty = 0.0
        total = 0
        if charge_route:
            if policy is None:
                return None
            penalty += policy.wait_for(1, plane.rng)
            dest = overlay.owner(key)
            if dest == sender_id:
                # The sender itself owns the key now: local hand-off.
                return (dest, dest, None, penalty)
            penalty += self._reroute(system, run, sender_id, dest, key, span)
        primary = dest
        current = dest
        attempts = 0
        budget = policy.budget if policy is not None else 1
        while True:
            total += 1
            attempts += 1
            outcome = plane.transmit(sender_id, current)
            if outcome.crashed:
                # The destination died mid-delivery, taking the message with
                # it.  Time out, then route to whoever owns the key now
                # (with replication, the successor promoted the data).
                stats.record_dropped()
                if policy is None or total >= budget:
                    return None
                penalty += policy.wait_for(attempts, plane.rng)
                if current == primary:
                    primary = overlay.owner(key)
                    nxt = primary
                elif primary in overlay.nodes:
                    # A failover stand-in died while the primary is still
                    # unreachable-but-alive: try the next ring successor.
                    nxt = overlay.successor_id(primary)
                    if nxt == primary:
                        return None
                else:  # pragma: no cover - defensive
                    primary = overlay.owner(key)
                    nxt = primary
                if nxt == sender_id:
                    return (nxt, primary, None if nxt == primary else primary,
                            penalty)
                penalty += self._reroute(system, run, sender_id, nxt, nxt, span)
                current = nxt
                attempts = 0
                continue
            if outcome.dropped:
                stats.record_dropped()
                if policy is None or total >= budget:
                    return None
                penalty += policy.wait_for(attempts, plane.rng)
                if attempts < policy.max_attempts and not plane.always_drops(
                    current
                ):
                    # Retransmit to the same destination after backoff.
                    stats.record_retry()
                    stats.record_direct()
                    if trace is not None:
                        trace.emit(
                            span,
                            MessageSent(sender_id, current, "retry", hops=1),
                        )
                    continue
                if not (allow_failover and policy.failover):
                    return None
                backup = overlay.successor_id(current)
                if backup == current or plane.always_drops(backup):
                    return None  # nowhere left to go: the branch dies
                stats.record_failover()
                stats.record_direct()
                stats.routing_nodes.add(backup)
                if trace is not None:
                    trace.emit(
                        span,
                        MessageSent(sender_id, backup, "failover", hops=1,
                                    path=(sender_id, backup)),
                    )
                current = backup
                attempts = 0
                continue
            # Delivered (possibly delayed and/or duplicated).
            penalty += outcome.delay
            if outcome.duplicated:
                # Receivers deduplicate; the spurious copy still cost a send.
                stats.record_duplicate()
                stats.record_direct()
                if trace is not None:
                    trace.emit(
                        span, MessageSent(sender_id, current, "dup", hops=1)
                    )
            replica_of = primary if current != primary else None
            return (current, primary, replica_of, penalty)

    def _reroute(
        self, system: "SquidSystem", run: EngineRun, sender_id: int,
        target: int, key: int, span: int,
    ) -> float:
        """A timed-out sender routes the message again, toward ``key``'s
        owner ``target``: one charged, traced retry.  Returns its latency."""
        route = system.overlay.route(sender_id, key)
        run.stats.record_path(route.path)
        run.stats.record_retry()
        if run.trace is not None:
            run.trace.emit(
                span,
                MessageSent(sender_id, target, "retry",
                            hops=len(route.path) - 1, path=route.path),
            )
        return self._path_latency(route.path)


class OptimizedEngine(QueryEngine):
    """Distributed recursive refinement with pruning and aggregation.

    *Plan*: the initiator refines the query ``local_depth`` levels.
    *Continue*: a node that does not own the rest of a cluster refines the
    remainder beyond its range and dispatches the pieces by destination.
    A shed or lost visit drops its branch; the discovery limit stops the
    run.  Work entries are the tuples :meth:`QueryEngine._visit` documents.
    """

    name = "optimized"

    def __init__(
        self,
        aggregate: bool = True,
        local_depth: int = 1,
        latency_model=None,
        processing_delay: float = 0.0,
        fault_plane: "FaultPlane | None" = None,
        retry: "RetryPolicy | None" = None,
        replication: "ReplicationManager | None" = None,
        hop_budget: int | None = None,
        guard: "GuardPlane | None" = None,
    ) -> None:
        super().__init__(hop_budget, guard)
        #: When False, each sub-cluster travels as its own routed message
        #: (disables the paper's second optimization; used by the ablation).
        self.aggregate = aggregate
        #: How many refinement levels a node applies locally (CPU-only) to
        #: the remainder before dispatching sub-clusters.  1 reproduces the
        #: minimal-message behaviour; larger values mimic the paper's deeper
        #: per-node tree expansion, producing finer sub-queries — more
        #: messages without aggregation, but better batching with it.
        if local_depth < 1:
            raise EngineError(f"local_depth must be >= 1, got {local_depth}")
        self.local_depth = local_depth
        #: Optional :class:`~repro.overlay.proximity.LatencyModel`; when set,
        #: the execution is timed — stats gain ``completion_time`` and
        #: ``time_to_first_match`` in the model's latency units.
        self.latency_model = latency_model
        #: Per-node local processing time charged before dispatching.
        self.processing_delay = float(processing_delay)
        #: Optional :class:`~repro.faults.FaultPlane` every dispatched
        #: message passes through.  ``None`` — or an *inert* plane (all
        #: rates zero, no droppers) — leaves execution bit-identical to an
        #: engine built without one: every message then has the identity
        #: delivery outcome and the plane is never consulted.
        self.fault_plane = fault_plane
        #: Optional :class:`~repro.faults.RetryPolicy` governing timeouts,
        #: retransmissions, and successor failover when the plane swallows
        #: a message.  Without one, faulted branches are simply recorded as
        #: lost (``QueryResult.unresolved_ranges``).
        self.retry = retry
        #: Optional :class:`~repro.core.replication.ReplicationManager`;
        #: failover targets serve the unreachable peer's share of a cluster
        #: from its replica store, restoring full recall.
        self.replication = replication

    def result_cache_params(self):
        """Result-cache key component: name plus plan-shaping knobs.

        ``hop_budget`` is deliberately absent: it can only turn an answer
        *incomplete* (never change a complete one), and incomplete results
        are never cached.  The guard plane is absent for the same reason.
        """
        return ("optimized", self.aggregate, self.local_depth)

    def _plan_param(self):
        return self.local_depth

    def _plan(self, curve, region) -> list[Cluster]:
        """The initiator's first refinement of the query tree."""
        root = root_cluster(curve, region)
        if root is None:  # pragma: no cover - regions are never empty
            return []
        return self._refine_locally(curve, root, region, min_index=0)

    def _start(self, system: "SquidSystem", run: EngineRun, plan: list) -> None:
        """Dispatch the level-1 clusters from the initiator."""
        plane = self.fault_plane
        if plane is not None and plane.active:  # see begin_run: inertness
            run.plane = plane
            plane.begin_query(run.origin_id)
        self._dispatch(
            system, run, run.origin_id, plan, floor=0, now=0.0,
            parent_span=run.root_span,
        )

    def process_message(self, system: "SquidSystem", run: EngineRun, entry) -> bool:
        """One node handles one delivered sub-query (scan, prune or refine,
        dispatch the remainder); False stops the run (discovery limit)."""
        outcome, node_id, covered, arrival_time = self._visit(system, run, entry)
        cluster, span = entry[1], entry[4]
        trace = run.trace
        if outcome is _CONTINUE:
            remainder = self._refine_locally(
                system.curve, cluster, run.region, min_index=covered + 1
            )
            if trace is not None:
                trace.emit(
                    span, ClusterRefined(node_id, cluster.level, len(remainder))
                )
            if remainder:
                self._dispatch(
                    system, run, node_id, remainder, floor=covered + 1,
                    now=arrival_time + self._local_delay(run, node_id),
                    parent_span=span,
                )
                return True
            # The region's remaining geometry lies entirely within this
            # node's scanned window: the branch ends here too.
            reason = "empty"
        elif outcome is _OWNED:
            reason = "owned"
        else:
            # Shed or lost: the fan-out does not continue from this branch.
            # Discovery limit: enough matches known, the origin stops the
            # whole fan-out; outstanding branches are abandoned — their
            # dispatch messages are already (truthfully) counted; the
            # transport records how many were dropped in flight.
            return outcome is not _LIMIT
        run.stats.record_pruned()
        if trace is not None:
            trace.emit(span, Pruned(node_id, cluster.level, reason))
        return True

    def _refine_locally(self, curve, cluster: Cluster, region, min_index: int):
        """Expand the query tree ``local_depth`` levels at this node (CPU only)."""
        clusters = refine_cluster(curve, cluster, region, min_index=min_index)
        for _ in range(self.local_depth - 1):
            if all(c.is_resolved for c in clusters):
                break
            nxt: list[Cluster] = []
            for c in clusters:
                if c.is_resolved:
                    nxt.append(c)
                else:
                    nxt.extend(refine_cluster(curve, c, region, min_index=min_index))
            clusters = nxt
        return clusters

    def _dispatch(
        self, system: "SquidSystem", run: EngineRun, sender_id: int,
        clusters: list[Cluster], floor: int, now: float, parent_span: int,
    ) -> None:
        """Send sub-clusters toward their owners, optionally aggregated.

        A sub-cluster is routed by its first index *of interest*,
        ``max(min_index, floor)``: a partial cell straddling the sender's
        trim boundary keeps its full geometry, so its nominal minimum can lie
        at or below the sender — routing by the floored key keeps the chain
        strictly advancing along the ring (and prevents re-scanning).

        Grouping is by destination in increasing identifier order, matching
        the paper's probe-then-batch protocol: the probe message is routed
        (hop-counted), the destination's identity reply costs one message,
        and additional same-destination clusters share one batched message.
        Without aggregation every cluster is a message group of its own.

        When tracing, every dispatched cluster opens a child span of
        ``parent_span``; the probe/reply/batch messages are recorded on the
        spans that own them (probe on the first receiving span, reply and
        batch on the sender's span).

        Each physical message has a *delivery outcome* ``(processor,
        covered, replica_of, penalty)``: the identity ``(dest, dest, None,
        0.0)`` on a run without a fault plane, else whatever
        :meth:`_deliver_resilient` (retry/backoff/failover per the engine's
        policy) achieves — ``None`` when the message stays undeliverable,
        and then the clusters it carried are recorded as lost.  The sibling
        batch is its own physical message: it can be faulted independently
        of the probe, but never fails over (the probe/reply handshake
        already fixed its destination).
        """
        if not clusters:
            return
        curve = system.curve
        overlay = system.overlay
        stats = run.stats
        trace = run.trace
        work = run.outbox
        resilient = run.plane is not None
        # Each cluster's routing key is computed once and carried, as a
        # (key, cluster) pair, through the sort, the grouping and the
        # posted work entry.  The sort is stable on the key alone.
        keyed = [(max(c.min_index(curve), floor), c) for c in clusters]
        keyed.sort(key=itemgetter(0))
        owned: dict[int, list[tuple[int, Cluster]]] = {}
        for pair in keyed:
            dest = overlay.owner(pair[0])
            if dest in owned:
                owned[dest].append(pair)
            else:
                owned[dest] = [pair]
        aggregate = self.aggregate
        kind = "probe" if aggregate else "routed"
        reply = aggregate and len(keyed) > 1
        for dest, pairs in owned.items():
            if dest == sender_id:
                # Remainder that stays local (wrapped first node): no message.
                for key, cluster in pairs:
                    span = (
                        trace.new_span(parent_span, dest, cluster.level)
                        if trace is not None else 0
                    )
                    work.append(
                        (dest, cluster, key, now, span, dest, None, sender_id)
                    )
                continue
            for group in (pairs,) if aggregate else [(pair,) for pair in pairs]:
                first_key = group[0][0]
                route = overlay.route(sender_id, first_key)
                stats.record_path(route.path)
                first = (
                    self._deliver_resilient(
                        system, run, sender_id, dest, first_key, parent_span
                    )
                    if resilient else (dest, dest, None, 0.0)
                )
                batch = None
                lost_at = dest
                arrival = batch_arrival = now
                if first is not None:
                    lost_at = processor = first[0]
                    arrival = now + self._path_latency(route.path) + first[3]
                    if reply:
                        stats.record_direct()  # identity reply enabling aggregation
                    if len(group) > 1:
                        stats.record_direct()  # batched siblings, sent directly
                        stats.record_aggregated_batch()
                        batch = (
                            self._deliver_resilient(
                                system, run, sender_id, processor, first_key,
                                parent_span, allow_failover=False,
                            )
                            if resilient else first
                        )
                        if batch is not None:
                            # The probe carries the first cluster; batched
                            # siblings wait one sender<->dest round trip
                            # (reply + batch).
                            batch_arrival = (
                                arrival
                                + 2 * self._path_latency((sender_id, processor))
                                + batch[3]
                            )
                for i, (key, cluster) in enumerate(group):
                    carrier, at = (first, arrival) if i == 0 else (batch, batch_arrival)
                    # A span points at the node that will actually process
                    # the cluster: when the destination crashed mid-batch
                    # the batch's redelivery re-resolved to a new owner,
                    # which need not be the probe's processor.
                    span_node = lost_at if carrier is None else carrier[0]
                    span = (
                        trace.new_span(parent_span, span_node, cluster.level)
                        if trace is not None else 0
                    )
                    if trace is not None and i == 0:
                        trace.emit(
                            span,
                            MessageSent(
                                sender_id, dest, kind,
                                hops=len(route.path) - 1, path=route.path,
                            ),
                        )
                    if carrier is None:
                        rest = _window(curve, cluster, key, curve.size - 1)
                        self._abandon(run, rest, cluster.level, span, lost_at)
                    else:
                        work.append(
                            (carrier[0], cluster, key, at, span,
                             carrier[1], carrier[2], sender_id)
                        )
                if trace is not None and first is not None:
                    if reply:
                        trace.emit(
                            parent_span,
                            MessageSent(processor, sender_id, "reply", hops=1),
                        )
                    if len(group) > 1:
                        trace.emit(
                            parent_span,
                            MessageSent(sender_id, processor, "batch", hops=1),
                        )
                        trace.emit(
                            parent_span, Aggregated(sender_id, processor, len(group))
                        )


class NaiveEngine(QueryEngine):
    """Fully resolve clusters at the initiator; one message per cluster.

    This is the paper's unoptimized strategy used to motivate distributed
    refinement: "the number of clusters can be very high, and sending a
    message for each cluster is not a scalable solution" (§3.4.1).  Clusters
    spanning several nodes additionally walk the successor chain.

    *Plan*: every cluster, resolved up to ``max_level``.  *Continue*: a
    node that does not own the rest of a cluster hands it to its successor.
    When the chain ends — also on a shed visit, or at the discovery limit,
    which the next ``open`` re-checks — the initiator opens the next
    cluster; a visit lost to the hop budget abandons the rest of the plan.

    Work entries are ``(node, cluster, position, span, idx)``: a chain visit
    of plan range ``idx`` (the degenerate cluster ``FullRange(low, high)`` at
    the curve's full depth, scanned from ``position`` on), or with
    ``cluster=None`` an ``open``: the initiator dispatches range ``idx``.
    Exactly one entry is ever outstanding, so the protocol's strictly
    sequential order is preserved over any transport.
    """

    name = "naive"

    def __init__(
        self,
        max_level: int | None = None,
        hop_budget: int | None = None,
        guard: "GuardPlane | None" = None,
    ) -> None:
        super().__init__(hop_budget, guard)
        #: Optional refinement cap (the paper's curve approximation order);
        #: None resolves clusters exactly.
        self.max_level = max_level

    def result_cache_params(self):
        """Result-cache key component: name plus refinement depth."""
        return ("naive", self.max_level)

    def _plan_param(self):
        return self.max_level

    def _plan(self, curve, region) -> list[tuple[int, int]]:
        """Full cluster resolution: the naive engine's dominant initiator cost."""
        return resolve_clusters(curve, region, max_level=self.max_level)

    def _start(self, system: "SquidSystem", run: EngineRun, plan: list) -> None:
        """Keep the plan on the run and open its first range."""
        run.ranges = plan
        if self.hop_budget is None:
            # A healthy walk takes about one step per cluster plus one per
            # node boundary crossed, so the default budget scales with both.
            run.budget += len(plan)
        run.outbox.append((run.origin_id, None, 0, run.root_span, 0))

    def process_message(self, system: "SquidSystem", run: EngineRun, entry) -> bool:
        """Handle one protocol step (see the class docstring for entries)."""
        node_id, cluster, position, span, idx = entry
        if cluster is None:
            self._open(system, run, idx)
            return True
        visit = (node_id, cluster, position, 0.0, span, node_id, None, run.origin_id)
        outcome = self._visit(system, run, visit)[0]
        if outcome is _LOST:
            # The hop budget is gone — a post-crash stale-pointer cycle is
            # walking the ring forever: besides this cluster's remaining
            # window, every cluster not yet dispatched is abandoned.
            run.unresolved.extend(run.ranges[idx + 1:])
        elif outcome is _CONTINUE:
            # The cluster spans further nodes: walk the successor chain.
            position = node_id + 1
            next_id = system.overlay.owner(position)
            run.stats.record_direct()  # hand the rest of the range onward
            run.stats.routing_nodes.add(next_id)
            if run.trace is not None:
                span = run.trace.new_span(span, next_id, cluster.level)
                run.trace.emit(
                    span,
                    MessageSent(
                        node_id, next_id, "handoff",
                        hops=1, path=(node_id, next_id),
                    ),
                )
            run.outbox.append((next_id, cluster, position, span, idx))
        else:
            run.outbox.append((run.origin_id, None, 0, run.root_span, idx + 1))
        return True

    def _open(self, system: "SquidSystem", run: EngineRun, idx: int) -> None:
        """The initiator routes plan range ``idx`` to the owner of its low
        end — one message per cluster — unless the run is over."""
        ranges = run.ranges
        origin_id = run.origin_id
        if run.guard is not None and self._refused(run, origin_id):
            # The initiator itself is overloaded: the clusters not yet
            # dispatched are shed wholesale (one accounting event).
            if idx < len(ranges):
                self._abandon(run, ranges[idx:], 0, run.root_span, origin_id, shed=True)
            return
        if idx >= len(ranges):
            return  # every cluster handled: the run drains out
        if run.limit is not None and len(run.matches) >= run.limit:
            # Discovery mode: remaining clusters were never dispatched,
            # so no in-flight messages exist to account for.
            return
        low, high = ranges[idx]
        order = system.curve.order
        dest = system.overlay.owner(low)
        trace = run.trace
        span = run.root_span
        if trace is not None:
            span = trace.new_span(span, dest, order)
        if dest != origin_id:
            route = system.overlay.route(origin_id, low)
            run.stats.record_path(route.path)
            if trace is not None:
                trace.emit(
                    span,
                    MessageSent(
                        origin_id, dest, "routed",
                        hops=len(route.path) - 1, path=route.path,
                    ),
                )
        cluster = Cluster(order, (FullRange(low, high),))
        run.outbox.append((dest, cluster, low, span, idx))


_ENGINES = {
    "optimized": OptimizedEngine,
    "naive": NaiveEngine,
}


def make_engine(name: str, **kwargs) -> QueryEngine:
    """Instantiate an engine by name (``"optimized"`` or ``"naive"``)."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise EngineError(
            f"unknown engine {name!r}; choose from {sorted(_ENGINES)}"
        ) from None
    return cls(**kwargs)
