"""Server front-door overload behaviour: 429s, quotas, guarded engines.

The admission contract (``docs/overload.md``): a request that cannot get
a slot *and* finds the bounded waiting room full is refused immediately
with ``429 Too Many Requests`` and a ``Retry-After`` header — never
queued unboundedly, never a 5xx — and refusals are counted in
``rejected``, separately from ``errors``, in ``/stats``.
"""

from __future__ import annotations

import asyncio
import gc
import json

import pytest

from repro.core.engine import OptimizedEngine
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from repro.guard import GuardConfig, GuardPlane
from repro.net import (
    QueryClient,
    QueryServer,
    build_demo_system,
    demo_requests,
    encode_result,
)
from repro.net.loadgen import DEFAULT_GUARD_KWARGS, run_pool
from repro.net.server import read_http_response

BUILD = dict(seed=7, n_nodes=16, n_docs=200, bits=8)


def _serve(coro_fn, **server_kwargs):
    async def main():
        system = server_kwargs.pop("system", None) or build_demo_system(**BUILD)
        async with QueryServer(system, **server_kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(main())


async def _raw_request(server, payload):
    """One request via a raw socket; returns (status, headers, body dict)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        body = json.dumps(payload).encode()
        head = (
            f"POST /query HTTP/1.1\r\nHost: {server.host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        status, headers, raw = await read_http_response(reader)
        return status, headers, json.loads(raw.decode()) if raw else {}
    finally:
        writer.close()
        await writer.wait_closed()


class TestPriorityField:
    def test_priority_round_trips_and_does_not_change_the_answer(self):
        system = build_demo_system(**BUILD)
        twin = build_demo_system(**BUILD)
        origin = system.overlay.node_ids()[0]

        async def scenario(server):
            out = []
            async with QueryClient(server.host, server.port) as client:
                for priority in (None, "interactive", "batch", "background"):
                    payload = {"query": "(comp*, *)", "origin": origin}
                    if priority is not None:
                        payload["priority"] = priority
                    out.append(await client.request("POST", "/query", payload))
            return out

        responses = _serve(scenario, system=system)
        expected = json.loads(
            json.dumps(
                encode_result(twin.query("(comp*, *)", origin=origin)),
                sort_keys=True,
                default=str,
            )
        )
        for status, body in responses:
            assert status == 200
            assert body["result"] == expected

    def test_invalid_priority_is_a_400_not_a_reject(self):
        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                status, body = await client.request(
                    "POST", "/query",
                    {"query": "(comp*, *)", "priority": "urgent"},
                )
                stats = await client.get("/stats")
            return status, body, stats

        status, body, stats = _serve(scenario)
        assert status == 400
        assert "priority" in body["error"]
        assert stats["errors"] == 1
        assert stats["rejected"] == 0

    @pytest.mark.parametrize("bad", [True, 3, ["batch"]])
    def test_non_string_priorities_rejected(self, bad):
        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                status, _ = await client.request(
                    "POST", "/query", {"query": "(comp*, *)", "priority": bad}
                )
            return status

        assert _serve(scenario) == 400


class TestBacklogCap:
    def test_full_backlog_rejects_with_retry_after(self):
        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                slow = asyncio.ensure_future(
                    client.request("POST", "/query", {"query": "(*, *)"})
                )
                await asyncio.sleep(0.05)  # the slow query holds the slot
                status, headers, body = await _raw_request(
                    server, {"query": "(comp*, *)"}
                )
                slow_status, _ = await slow
                stats_ = await client.get("/stats")
            return slow_status, status, headers, body, stats_

        slow_status, status, headers, body, stats = _serve(
            scenario,
            max_inflight=1,
            max_backlog=0,
            retry_after=3,
            per_message_delay=0.01,
        )
        assert slow_status == 200
        assert status == 429
        assert headers["retry-after"] == "3"
        assert body["retry_after"] == 3
        assert "backlog" in body["error"]
        # Refusals are rejections, not errors.
        assert stats["rejected"] == 1
        assert stats["errors"] == 0
        assert stats["max_backlog"] == 0

    def test_default_backlog_is_unbounded_waiting(self):
        """Without ``max_backlog`` the legacy contract holds: requests
        wait for a slot and every one completes (no 429s)."""

        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                statuses = []
                for _ in range(6):
                    status, _ = await client.request(
                        "POST", "/query", {"query": "(comp*, *)"}
                    )
                    statuses.append(status)
                stats_ = await client.get("/stats")
            return statuses, stats_

        statuses, stats = _serve(scenario, max_inflight=1)
        assert statuses == [200] * 6
        assert stats["rejected"] == 0

    def test_validation(self):
        system = build_demo_system(**BUILD)
        with pytest.raises(Exception):
            QueryServer(system, max_backlog=-1)
        with pytest.raises(Exception):
            QueryServer(system, retry_after=0)
        with pytest.raises(Exception):
            QueryServer(system, class_quotas={"urgent": 2})
        with pytest.raises(Exception):
            QueryServer(system, class_quotas={"batch": -1})


class TestClassQuotas:
    def test_over_quota_class_is_rejected_others_admitted(self):
        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                bg_status, _, bg_body = await _raw_request(
                    server, {"query": "(comp*, *)", "priority": "background"}
                )
                ok_status, _ = await client.request(
                    "POST", "/query",
                    {"query": "(comp*, *)", "priority": "interactive"},
                )
                stats_ = await client.get("/stats")
            return bg_status, bg_body, ok_status, stats_

        bg_status, bg_body, ok_status, stats = _serve(
            scenario, class_quotas={"background": 0}
        )
        assert bg_status == 429
        assert "quota" in bg_body["error"]
        assert ok_status == 200
        assert stats["rejected"] == 1
        assert stats["errors"] == 0


    def test_cancelled_while_waiting_releases_its_place(self):
        """A request cancelled while it waits for an execution slot gives
        back both its place in the waiting room and its class occupancy."""

        async def scenario(server):
            body = json.dumps({"query": "(*, *)", "priority": "batch"}).encode()
            holder = asyncio.ensure_future(server._handle_query(body))
            waiter = asyncio.ensure_future(server._handle_query(body))
            await asyncio.sleep(0.005)
            waiting, occupied = server.waiting, dict(server._class_occupancy)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            status, _, _ = await holder
            return waiting, occupied, status, server.waiting, server._class_occupancy

        waiting, occupied, status, waiting_after, occupied_after = _serve(
            scenario, max_inflight=1, per_message_delay=0.005
        )
        assert (waiting, occupied) == (1, {"batch": 2})
        assert status == b"200 OK"
        assert (waiting_after, occupied_after) == (0, {"batch": 0})


class TestGuardedEngineServed:
    def test_served_shed_result_is_an_honest_partial(self):
        """An aggressive engine guard sheds through the full serving
        stack: the HTTP answer itself carries ``complete=False`` and the
        shed branches, so remote clients are never lied to."""
        engine = OptimizedEngine(
            guard=GuardPlane(
                GuardConfig(queue_high=1, queue_low=0, bucket_capacity=1,
                            bucket_refill=0.0)
            )
        )
        system = build_demo_system(engine=engine, **BUILD)
        origin = system.overlay.node_ids()[0]

        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                return await client.request(
                    "POST", "/query",
                    {"query": "(*, *)", "origin": origin, "priority": "batch"},
                )

        status, body = _serve(scenario, system=system)
        assert status == 200
        assert body["result"]["complete"] is False
        assert body["result"]["unresolved_ranges"]
        assert body["stats"]["shed_branches"] > 0


def test_guarding_pays_at_4x_capacity():
    """Open-loop replay at 4x the calibrated closed-loop capacity, equal
    ``max_inflight`` on every leg so only the admission policy differs:
    the guarded server (bounded backlog + engine guard plane: clean 429s,
    bounded tails) must beat the unguarded one (unbounded waiting: answers
    arrive, but late) on **both** p99 and goodput; below the watermarks it
    must be inert — clean, and byte-identical to an in-process twin; and
    no leg, a 5%-drop fault plane under the guards included, may fail."""
    # The overload window must be long enough for the unguarded server to
    # reach its saturated steady state (queueing compounding past the
    # deadline); a short burst lets its early-ramp answers land in-deadline
    # and the goodput comparison becomes a coin flip.
    n_requests, n_cal = 160, 40
    max_inflight, max_backlog = 8, 4
    # Client concurrency sets the unguarded server's queueing depth, and
    # with it the wave latency every unguarded answer pays under overload
    # (~concurrency / capacity).  It must sit well past the deadline while
    # the guarded bound (max_inflight + max_backlog servings) sits well
    # inside it, or the p99/goodput gates degenerate into coin flips.
    loadgen_clients = 128
    twin = build_demo_system(**BUILD)
    requests = demo_requests(twin, BUILD["seed"], n_requests)
    calm_requests = requests[:n_cal]
    capacity = deadline = None

    def warm(server):
        # Calibrates capacity on the unguarded server; on the guarded ones
        # it warms the plan/route caches the same way.
        return run_pool(
            server.host, server.port, calm_requests, mode="closed", concurrency=8
        )

    def overload(server):
        return run_pool(
            server.host, server.port, requests,
            mode="open", rate=4.0 * capacity, concurrency=loadgen_clients,
            priority="batch", deadline=deadline,
        )

    async def unguarded_leg(server):
        nonlocal capacity, deadline
        capacity = (await warm(server)).qps
        deadline = 2.0 * (max_inflight + max_backlog) / capacity
        return await overload(server)

    async def calm_then_overload(server):
        await warm(server)
        # A modest client pool: the calm leg checks inertness below the
        # watermarks, and a full overload-sized client swarm can burst past
        # the small backlog cap even at half capacity.
        calm = await run_pool(
            server.host, server.port, calm_requests,
            mode="open", rate=max(1.0, 0.5 * capacity), concurrency=8,
            deadline=deadline, collect=True,
        )
        return calm, await overload(server)

    async def chaos_leg(server):
        await warm(server)
        return await overload(server)

    def serve(leg, engine="optimized", **front_door):
        return _serve(
            leg,
            system=build_demo_system(engine=engine, **BUILD),
            per_message_delay=0.001,
            max_inflight=max_inflight,
            **front_door,
        )

    def guard():
        return GuardPlane(GuardConfig(**DEFAULT_GUARD_KWARGS))

    # Late in a full-suite process one gen-2 collection pauses the loop
    # for ~100 ms — as long as the guarded leg's whole overload window, in
    # which every answer would then be late.  Measure with the collector
    # off, as ``timeit`` does.
    gc.collect()
    gc.disable()
    try:
        unguarded = serve(unguarded_leg)
        calm, guarded = serve(
            calm_then_overload,
            OptimizedEngine(guard=guard()),
            max_backlog=max_backlog,
        )
        chaos = serve(
            chaos_leg,
            OptimizedEngine(
                fault_plane=FaultPlane(
                    FaultConfig(drop_rate=0.05, seed=BUILD["seed"])
                ),
                retry=RetryPolicy(),
                guard=guard(),
            ),
            max_backlog=max_backlog,
        )
    finally:
        gc.enable()

    assert (calm.rejected, calm.shed_answers, calm.errors) == (0, 0, 0), calm.render()
    assert [json.dumps(r["result"], sort_keys=True) for r in calm.responses] == [
        json.dumps(
            encode_result(twin.query(r["query"], origin=r["origin"])), sort_keys=True
        )
        for r in calm_requests
    ]
    for report in (unguarded, guarded, chaos):
        report.check_overload(max_shed_fraction=1.0)  # no 5xx, no hard error
    assert guarded.goodput > unguarded.goodput
    assert guarded.latency_s["p99"] < unguarded.latency_s["p99"]
