"""Transport-level identity: async delivery == the synchronous simulation.

The contract under test (docs/serving.md): a query run over
:class:`AsyncioTransport` processes its work entries in exactly the FIFO
post order :func:`drive_sync` uses, so matches, stats, and completeness are
bit-identical to in-process execution — serially, concurrently, under
discovery-mode limits, and with tiny inbox bounds.  The mechanism under it
(one wire timer per node, a direct hand-off at zero wire time) is pinned by
the tests at the end: when a run crosses the event loop, which queued
envelope a node takes next, and what ``close()`` leaves behind.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.net import (
    AsyncioTransport,
    SyncTransport,
    build_demo_system,
    demo_requests,
    encode_result,
)
from repro.net.transport import DRIVER_SLICE, _Inbox

SEED = 7
BUILD = dict(seed=SEED, n_nodes=16, n_docs=200, bits=8)


def _canon(result) -> str:
    return json.dumps(encode_result(result), sort_keys=True)


def _reference(requests):
    system = build_demo_system(**BUILD)
    out = []
    for req in requests:
        res = system.query(req["query"], origin=req["origin"])
        out.append((_canon(res), res.stats.as_dict()))
    return out


@pytest.fixture(scope="module")
def requests():
    return demo_requests(build_demo_system(**BUILD), SEED, 24)


@pytest.fixture(scope="module")
def reference(requests):
    return _reference(requests)


def test_sync_transport_matches_system_query(requests, reference):
    system = build_demo_system(**BUILD)

    async def main():
        async with SyncTransport(system) as transport:
            return [
                await transport.submit(r["query"], origin=r["origin"])
                for r in requests
            ]

    results = asyncio.run(main())
    got = [(_canon(res), res.stats.as_dict()) for res in results]
    assert got == reference


# Without a wire delay an entry is handed over inside its put and no inbox
# ever fills; with one, entries queue behind a busy wire and arrive from
# timers.  Both must reproduce the serial stats at any bound (that the small
# bounds really suspend posters is pinned further down, with runs in flight).
@pytest.mark.parametrize(
    "inbox_capacity, per_message_delay",
    [
        pytest.param(capacity, delay, id=f"{capacity}-wire" if delay else str(capacity))
        for delay in (0.0, 0.0002)
        for capacity in (1, 2, 128)
    ],
)
def test_asyncio_transport_serial_identity(
    requests, reference, inbox_capacity, per_message_delay
):
    """Answers AND stats identical for any inbox bound (backpressure only
    changes scheduling, never the processed entry order)."""
    system = build_demo_system(**BUILD)

    async def main():
        async with AsyncioTransport(
            system,
            inbox_capacity=inbox_capacity,
            per_message_delay=per_message_delay,
        ) as transport:
            return [
                await transport.submit(r["query"], origin=r["origin"])
                for r in requests
            ]

    results = asyncio.run(main())
    got = [(_canon(res), res.stats.as_dict()) for res in results]
    assert got == reference


@pytest.mark.parametrize("inbox_capacity", [1, 2, 128])
def test_asyncio_transport_concurrent_identity(requests, reference, inbox_capacity):
    """N interleaved submissions return the same *answers* as serial
    in-process execution (stats may differ only in shared-cache hit flags)."""
    system = build_demo_system(**BUILD)

    async def main():
        async with AsyncioTransport(
            system, inbox_capacity=inbox_capacity, per_message_delay=0.0002
        ) as transport:
            return await asyncio.gather(
                *(
                    transport.submit(r["query"], origin=r["origin"])
                    for r in requests
                )
            )

    results = asyncio.run(main())
    assert [_canon(res) for res in results] == [canon for canon, _ in reference]


def test_asyncio_transport_limit_mode(requests):
    """Discovery-mode early stop: same matches and same abandoned-branch
    accounting as the synchronous pump."""
    system = build_demo_system(**BUILD)
    twin = build_demo_system(**BUILD)
    origin = requests[0]["origin"]

    async def main():
        async with AsyncioTransport(system) as transport:
            return await transport.submit(
                "(*, 128-1024)", origin=origin, limit=3
            )

    served = asyncio.run(main())
    local = twin.query("(*, 128-1024)", origin=origin, limit=3)
    assert len(served.matches) >= 3
    assert [e.payload for e in served.matches] == [
        e.payload for e in local.matches
    ]
    assert served.stats.as_dict() == local.stats.as_dict()


def test_asyncio_transport_result_cache_mirror():
    """The transport serves and fills the system's result cache exactly as
    SquidSystem.query does."""
    system = build_demo_system(result_cache=32, **BUILD)
    req = demo_requests(system, SEED, 1)[0]

    async def main():
        async with AsyncioTransport(system) as transport:
            first = await transport.submit(req["query"], origin=req["origin"])
            second = await transport.submit(req["query"], origin=req["origin"])
            return first, second

    first, second = asyncio.run(main())
    assert first.stats.result_cache_hit is False
    assert second.stats.result_cache_hit is True
    assert _canon(first) == _canon(second)


def test_asyncio_transport_naive_engine(requests):
    """The naive engine's single-chain walk serves over the transport too."""
    system = build_demo_system(engine="naive", **BUILD)
    twin = build_demo_system(engine="naive", **BUILD)

    async def main():
        async with AsyncioTransport(system) as transport:
            return [
                await transport.submit(r["query"], origin=r["origin"])
                for r in requests[:8]
            ]

    results = asyncio.run(main())
    for res, req in zip(results, requests[:8]):
        local = twin.query(req["query"], origin=req["origin"])
        assert _canon(res) == _canon(local)
        assert res.stats.as_dict() == local.stats.as_dict()


def test_transport_accounting(requests):
    system = build_demo_system(**BUILD)

    async def main():
        async with AsyncioTransport(system) as transport:
            for r in requests[:5]:
                await transport.submit(r["query"], origin=r["origin"])
            return (
                transport.queries_served,
                transport.messages_delivered,
                transport.inflight,
            )

    served, delivered, inflight = asyncio.run(main())
    assert served == 5
    assert delivered > 0
    assert inflight == 0


# ----------------------------------------------------------------------
# The mechanism: loop crossings, inbox priority, close()
# ----------------------------------------------------------------------
class _Ticker:
    """Counts the event-loop iterations that pass while it is entered."""

    def __init__(self) -> None:
        self.ticks = 0

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(0)
            self.ticks += 1

    async def __aenter__(self) -> "_Ticker":
        self._task = asyncio.ensure_future(self._run())
        await asyncio.sleep(0)  # the ticker now waits for the next iteration
        return self

    async def __aexit__(self, *exc) -> None:
        self._task.cancel()


def test_zero_delay_short_run_never_crosses_the_event_loop(requests, reference):
    """With no wire time an envelope arrives inside the post that enqueued
    it: a run shorter than the driver slice completes before any other task
    gets a turn (at one worker task per node it took two per message)."""
    system = build_demo_system(**BUILD)

    async def main():
        out = []
        async with AsyncioTransport(system) as transport, _Ticker() as ticker:
            for r in requests:
                before = transport.messages_delivered
                res = await transport.submit(r["query"], origin=r["origin"])
                assert 0 < transport.messages_delivered - before < DRIVER_SLICE
                out.append((_canon(res), res.stats.as_dict()))
            return out, ticker.ticks

    got, ticks = asyncio.run(main())
    assert got == reference
    assert ticks == 0


def test_zero_delay_long_run_yields_every_slice():
    """A run longer than the slice lets the loop turn once per slice, so a
    short query submitted beside a long one finishes first."""
    build = dict(BUILD, n_nodes=64)
    system = build_demo_system(**build)
    twin = build_demo_system(**build)
    origin = system.overlay.node_ids()[0]
    finished = []

    async def main():
        async with AsyncioTransport(system) as transport, _Ticker() as ticker:

            async def submit(name, query):
                res = await transport.submit(query, origin=origin)
                finished.append(name)
                return res

            results = await asyncio.gather(
                submit("long", "(*, *)"), submit("short", "(computer, 128)")
            )
            return results, transport.messages_delivered, ticker.ticks

    (long, short), delivered, ticks = asyncio.run(main())
    assert finished == ["short", "long"]
    assert delivered > 2 * DRIVER_SLICE
    assert ticks >= delivered // DRIVER_SLICE
    assert _canon(long) == _canon(twin.query("(*, *)", origin=origin))
    assert _canon(short) == _canon(twin.query("(computer, 128)", origin=origin))


def test_busy_node_takes_the_most_urgent_queued_envelope():
    """Five runs of one point query send their first envelope to the same
    node.  The first occupies its wire; of the four queued behind it the
    wire takes the lowest rank first, and equal ranks in enqueue order —
    decided when the wire frees, not when the envelope was enqueued."""
    system = build_demo_system(**BUILD)
    origin = system.overlay.node_ids()[0]
    priorities = ["interactive", "background", "batch", "interactive", "background"]
    opened, first_processed = [], []

    async def main():
        async with AsyncioTransport(system, per_message_delay=0.002) as transport:
            engine = transport.engine
            begin_run, process_message = engine.begin_run, engine.process_message

            def spy_begin(*args, **kwargs):
                opened.append(begin_run(*args, **kwargs))
                return opened[-1]

            def spy_process(system_, run, entry):
                if run not in first_processed:
                    first_processed.append(run)
                return process_message(system_, run, entry)

            engine.begin_run, engine.process_message = spy_begin, spy_process
            try:
                await asyncio.gather(
                    *(
                        transport.submit("(computer, 128)", origin=origin, priority=p)
                        for p in priorities
                    )
                )
            finally:
                del engine.begin_run, engine.process_message

    asyncio.run(main())
    assert [opened.index(run) for run in first_processed] == [0, 3, 2, 1, 4]


@pytest.mark.parametrize("inbox_capacity", [1, 2])
def test_full_inbox_suspends_the_poster_and_nothing_else(
    requests, reference, inbox_capacity, monkeypatch
):
    """With a wire delay and many runs in flight the small inboxes do fill:
    posting drivers wait in ``put`` (counted here), the wires keep draining
    them, and every answer is still the serial one."""
    system = build_demo_system(**BUILD)
    put, suspended = _Inbox.put, 0

    async def counting_put(self, envelope):
        nonlocal suspended
        suspended += self.full()
        await put(self, envelope)

    monkeypatch.setattr(_Inbox, "put", counting_put)

    async def main():
        async with AsyncioTransport(
            system, inbox_capacity=inbox_capacity, per_message_delay=0.0002
        ) as transport:
            return await asyncio.wait_for(
                asyncio.gather(
                    *(transport.submit(r["query"], origin=r["origin"]) for r in requests)
                ),
                timeout=30,
            )

    results = asyncio.run(main())
    assert suspended > 0
    assert [_canon(res) for res in results] == [canon for canon, _ in reference]


@pytest.mark.filterwarnings("error")
def test_close_with_envelopes_on_the_wire():
    """``close()`` cancels the wire timers and abandons the run: nothing
    arrives afterwards, nothing is logged or warned about."""
    system = build_demo_system(**BUILD)

    async def main():
        transport = await AsyncioTransport(system, per_message_delay=0.02).start()
        task = asyncio.ensure_future(transport.submit("(*, *)"))
        await asyncio.sleep(0.005)
        assert transport.inflight == 1
        await transport.close()
        counters = (transport.messages_delivered, transport.messages_stale)
        await asyncio.sleep(0.05)  # past the moment the envelopes would land
        assert (transport.messages_delivered, transport.messages_stale) == counters
        assert transport.inflight == 0
        assert not task.done()  # abandoned, not failed
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(main())
