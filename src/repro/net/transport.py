"""Transports: message delivery decoupled from engine logic.

The engines in :mod:`repro.core.engine` expose a delivery-agnostic run API —
:meth:`~repro.core.engine.QueryEngine.begin_run` posts work entries into an
:class:`~repro.core.engine.EngineRun` outbox,
:meth:`~repro.core.engine.QueryEngine.process_message` handles one delivered
entry (posting follow-ups), and
:meth:`~repro.core.engine.QueryEngine.finish_run` seals the result.  A
*transport* owns everything in between: where each posted entry travels,
when it arrives, and what runs concurrently.

Two implementations:

:class:`SyncTransport`
    The original single-process simulation: every run is pumped to
    completion in FIFO post order (:func:`repro.core.engine.drive_sync`)
    before ``submit`` returns.  Zero concurrency, zero overhead — the
    reference behaviour.

:class:`AsyncioTransport`
    Real concurrent delivery.  Every overlay node gets a bounded
    :class:`asyncio.Queue` inbox drained by a worker task; work entries are
    wrapped in ``(qid, seq, entry)`` envelopes where ``qid`` is the query
    correlation id and ``seq`` the per-run post sequence number.  Many
    queries are in flight at once — their messages interleave freely in the
    node inboxes — yet each individual run processes its entries in exact
    ``seq`` order, which is the FIFO post order :func:`drive_sync` uses.
    **A run therefore computes bit-identical matches, stats, and traces
    over either transport**; concurrency changes only wall-clock time (and
    shared-cache hit flags, which depend on arrival order across runs).

    ``per_message_delay`` simulates network latency: each delivery sleeps
    in the *node's* worker, so deliveries to distinct nodes overlap while a
    single node serializes its inbox — the concurrency profile of one
    event-loop thread per peer.

    Inboxes are **priority queues**: each envelope carries its run's
    priority rank (``interactive`` < ``batch`` < ``background``, see
    :mod:`repro.guard`), and a node drains lower ranks first.  A global
    monotone tiebreaker preserves exact FIFO order among equal ranks, so a
    uniform-priority workload is byte-for-byte the plain-queue behaviour.
    When the engine carries an armed :class:`~repro.guard.GuardPlane`, the
    transport feeds its backlog accounting: every enqueue calls
    ``note_posted`` and every envelope is either admitted by the engine's
    ``process_message`` or explicitly abandoned (stale deliveries,
    discovery-stop leftovers), keeping the per-node pending gauge exact.

Both transports take :meth:`SquidSystem.query`'s result-cache fast path
(the same probe and store), so a served query hits the initiator-side cache
exactly when a local call would.

Deadlock freedom (the classic bounded-mailbox pitfall): node workers never
*put* — they only pop an envelope, optionally sleep, and park it in the
destination run's reorder buffer.  All puts happen in the run's driver
coroutine, which a draining worker always unblocks eventually.
"""

from __future__ import annotations

import asyncio
import itertools
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.core.engine import drive_sync
from repro.core.metrics import QueryResult
from repro.errors import EngineError
from repro.util.rng import RandomLike

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EngineRun, QueryEngine
    from repro.core.system import SquidSystem

__all__ = ["Transport", "SyncTransport", "AsyncioTransport"]


class Transport(ABC):
    """Delivery strategy for one system + engine pair.

    ``engine`` accepts the same values as :meth:`SquidSystem.query`'s
    ``engine=`` parameter (instance, registry name, or None for the
    system's default).
    """

    def __init__(self, system: "SquidSystem", engine=None) -> None:
        self.system = system
        self.engine: "QueryEngine" = system._coerce_engine(engine)
        #: Queries answered through :meth:`submit` (cache hits included).
        self.queries_served = 0

    async def start(self) -> "Transport":
        """Bring the transport up (idempotent); returns ``self``."""
        return self

    async def close(self) -> None:
        """Tear the transport down; outstanding runs are abandoned."""

    async def __aenter__(self) -> "Transport":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    @abstractmethod
    async def submit(
        self,
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> QueryResult:
        """Resolve one query over this transport; see :meth:`SquidSystem.query`."""

    def _guard_plane(self):
        """The engine's *armed* guard plane, or None (mirrors ``run.guard``)."""
        guard = getattr(self.engine, "guard", None)
        if guard is not None and guard.active:
            return guard
        return None

    def _request_rng(self, rng: RandomLike):
        return rng if rng is not None else self.system._rng


class SyncTransport(Transport):
    """Synchronous in-process delivery — the original simulation order.

    ``submit`` runs the whole query to completion before returning (no
    await points inside the run), so results are exactly those of
    :meth:`SquidSystem.query` on the same system.
    """

    async def submit(
        self,
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> QueryResult:
        hit, key, bound = self.system._cache_probe(self.engine, query, limit)
        if hit is not None:
            self.queries_served += 1
            return hit
        run = self.engine.begin_run(
            self.system, bound, origin=origin,
            rng=self._request_rng(rng), limit=limit, priority=priority,
        )
        result = drive_sync(self.engine, self.system, run)
        self.system._cache_store(key, bound, result)
        self.queries_served += 1
        return result


class _RunState:
    """Reorder buffer + accounting for one in-flight query run."""

    __slots__ = ("run", "buffer", "ready", "next_seq", "next_to_process", "pending")

    def __init__(self, run: "EngineRun") -> None:
        self.run = run
        #: Delivered-but-not-yet-processed entries, keyed by post sequence.
        self.buffer: dict[int, object] = {}
        #: Signalled by node workers whenever the buffer gains an entry.
        self.ready = asyncio.Event()
        #: Next sequence number to assign to a posted entry.
        self.next_seq = 0
        #: Next sequence number the driver will process.
        self.next_to_process = 0
        #: Entries posted but not yet processed (in an inbox or the buffer).
        self.pending = 0


class AsyncioTransport(Transport):
    """Concurrent delivery over per-node asyncio inboxes.

    Parameters
    ----------
    inbox_capacity:
        Bound of each node's inbox queue.  A full inbox backpressures the
        posting run's driver (its ``put`` awaits) without ever blocking a
        node worker, so small capacities throttle fan-out but cannot
        deadlock.
    per_message_delay:
        Seconds each delivery spends "on the wire" (slept in the receiving
        node's worker).  0.0 measures pure protocol overhead; a small
        positive value makes concurrency measurable on a single core.
    """

    def __init__(
        self,
        system: "SquidSystem",
        engine=None,
        *,
        inbox_capacity: int = 128,
        per_message_delay: float = 0.0,
    ) -> None:
        super().__init__(system, engine)
        if inbox_capacity < 1:
            raise EngineError(f"inbox_capacity must be >= 1, got {inbox_capacity}")
        if per_message_delay < 0:
            raise EngineError(
                f"per_message_delay must be >= 0, got {per_message_delay}"
            )
        self.inbox_capacity = int(inbox_capacity)
        self.per_message_delay = float(per_message_delay)
        #: Envelopes delivered to a live run's reorder buffer.
        self.messages_delivered = 0
        #: Envelopes dropped because their run had already finished
        #: (discovery-mode early stop abandons queued entries).
        self.messages_stale = 0
        self._inboxes: dict[int, asyncio.PriorityQueue] = {}
        self._workers: dict[int, asyncio.Task] = {}
        self._runs: dict[int, _RunState] = {}
        self._qids = itertools.count()
        #: Global enqueue tiebreaker: keeps equal-rank envelopes in exact
        #: FIFO order through the priority queues.
        self._order = itertools.count()
        self._started = False

    @property
    def inflight(self) -> int:
        """Number of query runs currently in flight."""
        return len(self._runs)

    async def start(self) -> "AsyncioTransport":
        self._started = True
        for node_id in self.system.overlay.node_ids():
            self._ensure_inbox(node_id)
        return self

    async def close(self) -> None:
        for task in self._workers.values():
            task.cancel()
        for task in self._workers.values():
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        self._inboxes.clear()
        self._runs.clear()
        self._started = False

    # ------------------------------------------------------------------
    # Node mailboxes
    # ------------------------------------------------------------------
    def _ensure_inbox(self, node_id: int) -> asyncio.PriorityQueue:
        """The node's inbox, created lazily (nodes may join after start).

        Inboxes outlive crashes — like a network buffer, a mailbox keeps
        accepting envelopes for a dead peer; the engine's crashed-processor
        redelivery logic reroutes them when they are processed.
        """
        box = self._inboxes.get(node_id)
        if box is None:
            if not self._started:
                raise EngineError("AsyncioTransport used before start()")
            box = self._inboxes[node_id] = asyncio.PriorityQueue(
                maxsize=self.inbox_capacity
            )
            self._workers[node_id] = asyncio.ensure_future(
                self._node_worker(node_id, box)
            )
        return box

    async def _node_worker(self, node_id: int, box: asyncio.PriorityQueue) -> None:
        """Drain one node's inbox into the destination runs' buffers.

        Lower ranks (interactive) are popped ahead of higher ones; the
        global enqueue counter breaks rank ties in FIFO order.  Workers
        never block on a put (see module docstring): pop, simulate the wire
        delay, park the entry, signal the run's driver.  A stale envelope —
        its run already finished — is dropped, and the armed guard plane
        (if any) is told so its pending gauge for this node stays exact.
        """
        delay = self.per_message_delay
        while True:
            _rank, _order, qid, seq, entry = await box.get()
            if delay:
                await asyncio.sleep(delay)
            state = self._runs.get(qid)
            if state is None:
                self.messages_stale += 1
                guard = self._guard_plane()
                if guard is not None:
                    guard.note_abandoned(node_id)
                continue
            state.buffer[seq] = entry
            state.ready.set()
            self.messages_delivered += 1

    # ------------------------------------------------------------------
    # Query runs
    # ------------------------------------------------------------------
    async def submit(
        self,
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> QueryResult:
        if not self._started:
            await self.start()
        hit, key, bound = self.system._cache_probe(self.engine, query, limit)
        if hit is not None:
            self.queries_served += 1
            return hit
        run = self.engine.begin_run(
            self.system, bound, origin=origin,
            rng=self._request_rng(rng), limit=limit, priority=priority,
        )
        qid = next(self._qids)
        state = _RunState(run)
        self._runs[qid] = state
        try:
            await self._post(state, qid, run)
            result = await self._drive(state, qid, run)
        finally:
            # Deregister before any leftover envelope is popped: workers
            # drop envelopes of unknown runs (abandoned discovery-mode
            # branches), so nothing leaks into a later run with this qid.
            self._runs.pop(qid, None)
        self.system._cache_store(key, bound, result)
        self.queries_served += 1
        return result

    async def _post(self, state: _RunState, qid: int, run: "EngineRun") -> None:
        """Envelope and enqueue everything the engine just posted.

        Envelopes lead with the run's priority rank so node inboxes drain
        interactive work first; the guard plane (when armed) is told about
        every enqueue so per-node backlog is observable before admission.
        """
        engine = self.engine
        guard = run.guard
        rank = run.priority
        for entry in run.take_outbox():
            seq = state.next_seq
            state.next_seq += 1
            state.pending += 1
            dest = engine.entry_node(run, entry)
            if guard is not None:
                guard.note_posted(dest)
            await self._ensure_inbox(dest).put(
                (rank, next(self._order), qid, seq, entry)
            )

    async def _drive(
        self, state: _RunState, qid: int, run: "EngineRun"
    ) -> QueryResult:
        """Process delivered entries in post (seq) order until none remain.

        The strict ordering is what buys transport-independence: the engine
        observes exactly the entry sequence :func:`drive_sync` would feed
        it, so matches/stats/trace/RNG consumption are identical — only the
        interleaving *between* runs differs.
        """
        engine, system = self.engine, self.system
        while state.pending:
            entry = state.buffer.pop(state.next_to_process, None)
            if entry is None:
                state.ready.clear()
                if state.next_to_process in state.buffer:
                    continue  # delivered between the pop and the clear
                await state.ready.wait()
                continue
            state.next_to_process += 1
            state.pending -= 1
            if not engine.process_message(system, run, entry):
                # Discovery-mode stop: the entries still pending are the
                # abandoned in-flight branches drive_sync would count.
                run.stats.aborted_in_flight = state.pending
                guard = run.guard
                if guard is not None:
                    # Buffered-but-unprocessed entries are abandoned here;
                    # leftovers still in inboxes are handed back by the
                    # node workers when they pop the stale envelopes.
                    for buffered in state.buffer.values():
                        guard.note_abandoned(engine.entry_node(run, buffered))
                break
            await self._post(state, qid, run)
        return engine.finish_run(system, run)
