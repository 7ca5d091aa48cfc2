"""Transports: message delivery decoupled from engine logic.

An engine (:mod:`repro.core.engine`) posts work entries to a run's outbox in
``begin_run`` / ``process_message`` and seals the result in ``finish_run``.
A *transport* owns everything in between: where each posted entry travels,
when it arrives, and what runs concurrently.

:class:`SyncTransport`
    The original single-process simulation: each run is pumped to completion
    in FIFO post order (:func:`repro.core.engine.drive_sync`).

:class:`AsyncioTransport`
    Concurrent delivery.  An entry travels as a ``(rank, order, qid, seq,
    entry)`` envelope — ``qid`` names the run, ``seq`` is its post sequence
    number.  Every node has an *inbox*, a bounded priority queue, and a
    *wire* that carries one envelope at a time for ``per_message_delay``
    seconds: an event-loop timer, not a task.  A free wire takes the inbox's
    most urgent envelope — lowest priority rank (``interactive`` < ``batch``
    < ``background``, see :mod:`repro.guard`), equal ranks in global enqueue
    order — so deliveries to distinct nodes overlap and one node serialises.
    An arriving envelope is parked in its run's reorder buffer, which the
    run's driver coroutine processes in exact ``seq`` order: the order
    :func:`drive_sync` uses.  **A run therefore computes bit-identical
    matches, stats, and traces over either transport**; concurrency changes
    only wall-clock time (and shared-cache hit flags, which depend on
    arrival order across runs).

    At zero delay there is nothing to wait for: an envelope arrives inside
    the post that enqueued it, the driver finds its next ``seq`` buffered,
    and the run executes like :func:`drive_sync` without crossing the event
    loop — so the driver yields on purpose, every :data:`DRIVER_SLICE`
    entries.

    An armed :class:`~repro.guard.GuardPlane` hears ``note_posted`` for
    every completed enqueue, and every envelope is either admitted by the
    engine's ``process_message`` (asking the guard is a visit's first step)
    or handed back with ``note_abandoned``: a stale arrival, an entry its
    driver left in the reorder buffer on stopping early, being cancelled or
    raising, or one still queued or on a wire when the transport closes.
    Its per-node gauge stays exact.

Both transports take :meth:`SquidSystem.query`'s result-cache fast path, so
a served query hits the initiator-side cache exactly when a local call would,
and refuses a non-member origin on a hit as on a miss.

Deadlock freedom (the bounded-mailbox pitfall): only a driver *puts*, and
only a put can wait.  A full inbox is non-empty, a non-empty inbox has an
envelope on its wire, and the wire's timer fires whatever the drivers do —
its callback only pops and parks — so a waiting put is always released.
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

#: Entries a run's driver processes back to back before it yields to the
#: event loop.  Large enough that a cheap query (a handful of visits) never
#: pays a loop crossing, small enough that ``/healthz``, a 429 or a short
#: query waits a few milliseconds, not a whole broad range query.
DRIVER_SLICE = 32


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

    async def submit(
        self,
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> QueryResult:
        """Resolve one query over this transport; see :meth:`SquidSystem.query`."""
        hit, filing, bound = self.system._cache_probe(self.engine, query, limit, origin)
        if hit is not None:
            self.queries_served += 1
            return hit
        run = self.engine.begin_run(
            self.system, bound, origin=origin,
            rng=rng if rng is not None else self.system._rng,
            limit=limit, priority=priority,
        )
        result = await self._deliver(run)
        self.system._cache_store(filing, bound, result)
        self.queries_served += 1
        return result

    @abstractmethod
    async def _deliver(self, run: "EngineRun") -> QueryResult:
        """Carry an opened run's entries until none remain; seal its result."""

    def _guard_plane(self):
        """The engine's *armed* guard plane, or None (mirrors ``run.guard``)."""
        guard = getattr(self.engine, "guard", None)
        if guard is not None and guard.active:
            return guard
        return None


class SyncTransport(Transport):
    """Synchronous in-process delivery — the original simulation order.

    ``submit`` runs the whole query to completion before returning (no
    await points inside the run), so results are exactly those of
    :meth:`SquidSystem.query` on the same system.
    """

    async def _deliver(self, run: "EngineRun") -> QueryResult:
        return drive_sync(self.engine, self.system, run)


class _RunState:
    """Reorder buffer + accounting for one in-flight query run."""

    __slots__ = ("buffer", "wake", "next_seq", "next_to_process", "pending")

    def __init__(self) -> None:
        #: Arrived-but-not-yet-processed entries, keyed by post sequence.
        self.buffer: dict[int, object] = {}
        #: Set while the driver is suspended; resolved by the arrival of
        #: the entry it waits for (``next_to_process``).
        self.wake: asyncio.Future | None = None
        #: Next sequence number to assign to a posted entry.
        self.next_seq = 0
        #: Next sequence number the driver will process.
        self.next_to_process = 0
        #: Entries posted but not yet processed (inbox, wire or buffer).
        self.pending = 0


class _Inbox(asyncio.PriorityQueue):
    """One node's queued envelopes, plus the timer of the one on its wire."""

    wire: asyncio.TimerHandle | None = None


class AsyncioTransport(Transport):
    """Concurrent delivery over per-node inboxes and wire timers.

    Parameters
    ----------
    inbox_capacity:
        Bound of each node's inbox queue.  A full inbox backpressures the
        posting run's driver (its ``put`` awaits) and never the delivery
        side, so small capacities throttle fan-out but cannot deadlock.
        It binds only with a wire delay: at zero delay an envelope leaves
        the inbox inside the post that put it there.
    per_message_delay:
        Seconds each envelope spends on the receiving node's wire.  0.0
        measures pure protocol overhead; a small positive value makes
        concurrency measurable on a single core.
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
        #: Envelopes that arrived in a live run's reorder buffer.
        self.messages_delivered = 0
        #: Envelopes dropped because their run had already finished
        #: (discovery-mode early stop abandons queued entries).
        self.messages_stale = 0
        #: Created on first use, so nodes that join later get one too.
        #: Inboxes outlive crashes — like a network buffer, a mailbox keeps
        #: accepting envelopes for a dead peer; the engine's
        #: crashed-processor redelivery reroutes them when processed.
        self._inboxes: dict[int, _Inbox] = {}
        self._runs: dict[int, _RunState] = {}
        self._qids = itertools.count()
        #: Global enqueue tiebreaker: keeps equal-rank envelopes in exact
        #: FIFO order through the priority queues.
        self._order = itertools.count()

    @property
    def inflight(self) -> int:
        """Number of query runs currently in flight."""
        return len(self._runs)

    async def close(self) -> None:
        """Cancel the wires and abandon every run.

        What is queued in an inbox or travelling on a wire will never
        arrive, so the armed guard plane (if any) gets each of those
        envelopes back now; a run's driver hands back what its reorder
        buffer holds as it unwinds.
        """
        guard = self._guard_plane()
        for node_id, box in self._inboxes.items():
            undelivered = box.qsize()
            if box.wire is not None:
                box.wire.cancel()
                undelivered += 1
            if guard is not None:
                for _ in range(undelivered):
                    guard.note_abandoned(node_id)
        self._inboxes.clear()
        self._runs.clear()

    # ------------------------------------------------------------------
    # Node inboxes and wires
    # ------------------------------------------------------------------
    def _send(self, node_id: int, box: _Inbox) -> None:
        """Put the inbox's most urgent envelope on the node's idle wire.

        Which envelope travels is decided here, when the wire frees, not
        when it was enqueued: lowest rank, then global enqueue order.
        Taking it releases a driver waiting on the full inbox.
        """
        envelope = box.get_nowait()
        if self.per_message_delay:
            box.wire = asyncio.get_running_loop().call_later(
                self.per_message_delay, self._arrive, node_id, box, envelope
            )
        else:
            self._arrive(node_id, box, envelope)

    def _arrive(self, node_id: int, box: _Inbox, envelope: tuple) -> None:
        """An envelope reached its node: park it, then send the next one.

        The entry goes to its run's reorder buffer, and the run's driver is
        woken if this is the entry it waits for.  A stale envelope — its
        run already finished — is dropped, and the armed guard plane (if
        any) is told so its pending gauge for this node stays exact.
        """
        box.wire = None
        _rank, _order, qid, seq, entry = envelope
        state = self._runs.get(qid)
        if state is None:
            self.messages_stale += 1
            guard = self._guard_plane()
            if guard is not None:
                guard.note_abandoned(node_id)
        else:
            state.buffer[seq] = entry
            self.messages_delivered += 1
            wake = state.wake
            # Already done: the driver was cancelled and has yet to deregister.
            if wake is not None and seq == state.next_to_process and not wake.done():
                wake.set_result(None)
        if not box.empty():
            self._send(node_id, box)

    # ------------------------------------------------------------------
    # Query runs
    # ------------------------------------------------------------------
    async def _deliver(self, run: "EngineRun") -> QueryResult:
        qid = next(self._qids)
        state = self._runs[qid] = _RunState()
        try:
            await self._post(state, qid, run)
            return await self._drive(state, qid, run)
        finally:
            # Deregister before any leftover envelope arrives: arrivals for
            # unknown runs are dropped (abandoned discovery-mode branches),
            # so nothing leaks into a later run.
            self._runs.pop(qid, None)
            guard = run.guard
            if guard is not None:
                # However the driver left — done, discovery stop, cancelled
                # or raising — what it leaves parked will never be processed.
                # Envelopes still queued or on a wire are handed back when
                # they arrive stale.
                for entry in state.buffer.values():
                    guard.note_abandoned(self.engine.entry_node(run, entry))

    async def _post(self, state: _RunState, qid: int, run: "EngineRun") -> None:
        """Envelope and enqueue everything the engine just posted.

        Envelopes lead with the run's priority rank so a node's wire takes
        interactive work first; the guard plane (when armed) is told about
        every enqueue so per-node backlog is observable before admission —
        once the put is done, since a full inbox's put can be cancelled.
        """
        engine = self.engine
        guard = run.guard
        rank = run.priority
        inboxes = self._inboxes
        for entry in run.take_outbox():
            seq = state.next_seq
            state.next_seq += 1
            state.pending += 1
            dest = engine.entry_node(run, entry)
            box = inboxes.get(dest)
            if box is None:
                box = inboxes[dest] = _Inbox(maxsize=self.inbox_capacity)
            await box.put((rank, next(self._order), qid, seq, entry))
            if guard is not None:
                guard.note_posted(dest)
            if box.wire is None:
                self._send(dest, box)

    async def _drive(
        self, state: _RunState, qid: int, run: "EngineRun"
    ) -> QueryResult:
        """Process arrived entries in post (seq) order until none remain.

        The strict ordering is what buys transport-independence: the engine
        observes exactly the entry sequence :func:`drive_sync` would feed
        it, so matches/stats/trace/RNG consumption are identical — only the
        interleaving *between* runs differs.
        """
        engine, system = self.engine, self.system
        buffer = state.buffer
        streak = 0  # entries processed since this driver last suspended
        while state.pending:
            entry = buffer.pop(state.next_to_process, None)
            if entry is None:
                state.wake = asyncio.get_running_loop().create_future()
                await state.wake
                state.wake = None
                streak = 0
                continue
            state.next_to_process += 1
            state.pending -= 1
            if not engine.process_message(system, run, entry):
                # Discovery-mode stop: the entries still pending are the
                # abandoned in-flight branches drive_sync would count.
                run.stats.aborted_in_flight = state.pending
                break
            await self._post(state, qid, run)
            streak += 1
            if streak == DRIVER_SLICE:
                # A zero-delay run never waits for an arrival, so it would
                # hold the loop to its end: let other runs and connections in.
                await asyncio.sleep(0)
                streak = 0
        return engine.finish_run(system, run)
