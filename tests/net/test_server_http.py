"""HTTP front-end: routes, error handling, keep-alive, concurrency."""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.errors import ServingError
from repro.net import (
    QueryClient,
    QueryServer,
    build_demo_system,
    demo_requests,
    encode_result,
)
from repro.net.loadgen import run_pool
from repro.net.server import read_http_response
from repro.util.rng import as_generator

BUILD = dict(seed=7, n_nodes=16, n_docs=200, bits=8)


def _roundtrip(obj):
    """What a payload looks like after the server's JSON encoding."""
    return json.loads(json.dumps(obj, sort_keys=True, default=str))


def _serve(coro_fn, **server_kwargs):
    """Run ``coro_fn(server)`` against a fresh ephemeral-port server."""

    async def main():
        system = server_kwargs.pop("system", None) or build_demo_system(**BUILD)
        async with QueryServer(system, **server_kwargs) as server:
            return await coro_fn(server)

    return asyncio.run(main())


def test_healthz_stats_metrics_routes():
    async def scenario(server):
        async with QueryClient(server.host, server.port) as client:
            health = await client.get("/healthz")
            stats = await client.get("/stats")
            metrics = await client.get("/metrics")
        return health, stats, metrics

    health, stats, metrics = _serve(scenario)
    assert health["status"] == "ok"
    assert health["nodes"] == BUILD["n_nodes"]
    assert stats["requests"] == 0 and stats["errors"] == 0
    assert stats["inflight"] == 0
    assert metrics == {}  # no registry active


def test_query_roundtrip_and_keep_alive():
    system = build_demo_system(**BUILD)
    twin = build_demo_system(**BUILD)
    requests = demo_requests(system, 7, 6)

    async def scenario(server):
        async with QueryClient(server.host, server.port) as client:
            # All six requests ride one keep-alive connection.
            return [
                await client.query(r["query"], origin=r["origin"])
                for r in requests
            ]

    responses = _serve(scenario, system=system)
    for response, req in zip(responses, requests):
        local = twin.query(req["query"], origin=req["origin"])
        assert response["result"] == _roundtrip(encode_result(local))
        assert response["stats"]["messages"] == local.stats.messages


def test_query_seed_matches_in_process_rng():
    """A request ``seed`` derives the same RNG the in-process API would:
    the served origin choice (and hence the full stats) matches a twin
    system queried with ``rng=as_generator(seed)`` in the same sequence."""
    twin = build_demo_system(**BUILD)
    seeds = (999, 123)

    async def scenario(server):
        async with QueryClient(server.host, server.port) as client:
            return [await client.query("(comp*, *)", seed=s) for s in seeds]

    responses = _serve(scenario)
    for seed, response in zip(seeds, responses):
        local = twin.query("(comp*, *)", rng=as_generator(seed))
        assert response["result"] == _roundtrip(encode_result(local))
        assert response["stats"] == _roundtrip(local.stats.as_dict())


def test_bad_requests_are_400_not_500():
    async def scenario(server):
        async with QueryClient(server.host, server.port) as client:
            missing = await client.request("POST", "/query", {"q": "oops"})
            invalid_query = await client.request(
                "POST", "/query", {"query": "((("}
            )
            bad_origin = await client.request(
                "POST", "/query", {"query": "(*, *)", "origin": -1}
            )
            not_found = await client.request("GET", "/nope")
            server_stats = await client.get("/stats")
        return missing, invalid_query, bad_origin, not_found, server_stats

    missing, invalid_query, bad_origin, not_found, stats = _serve(scenario)
    assert missing[0] == 400 and "query" in missing[1]["error"]
    assert invalid_query[0] == 400
    assert bad_origin[0] == 400
    assert not_found[0] == 404
    assert stats["errors"] == 3
    # The server survived every malformed request on a live connection.
    assert stats["requests"] == 3


def test_client_query_raises_serving_error_on_400():
    def scenario_sync():
        async def scenario(server):
            async with QueryClient(server.host, server.port) as client:
                await client.query("(((")

        return _serve(scenario)

    with pytest.raises(ServingError):
        scenario_sync()


def test_discovery_limit_over_http():
    async def scenario(server):
        async with QueryClient(server.host, server.port) as client:
            full = await client.query("(*, 128-1024)", seed=3)
            limited = await client.query("(*, 128-1024)", seed=3, limit=2)
        return full, limited

    full, limited = _serve(scenario)
    assert len(limited["result"]["matches"]) >= 2
    assert len(limited["result"]["matches"]) < len(full["result"]["matches"])


def test_concurrent_http_clients_match_serial_answers():
    """The satellite concurrency test at the HTTP layer: 16 interleaved
    keep-alive clients replay a request list and must produce exactly the
    serial in-process answers, in request order — and concurrency must
    pay: they beat one client replaying the same list on throughput."""
    system = build_demo_system(**BUILD)
    twin = build_demo_system(**BUILD)
    requests = demo_requests(system, 7, 48)
    expected = [
        json.dumps(
            encode_result(twin.query(r["query"], origin=r["origin"])),
            sort_keys=True,
        )
        for r in requests
    ]

    async def scenario(server):
        return [
            await run_pool(
                server.host,
                server.port,
                requests,
                mode="closed",
                concurrency=clients,
                collect=True,
            )
            for clients in (1, 16)
        ]

    # A small simulated per-message wire delay (0.5ms): in-flight queries
    # overlap their wire delays while a serial client pays them back to
    # back.  Without one, a single-core host hides the concurrency win
    # behind pure CPU time.
    serial, concurrent = _serve(scenario, system=system, per_message_delay=0.0005)
    for report in (serial, concurrent):
        assert report.errors == 0
        got = [json.dumps(r["result"], sort_keys=True) for r in report.responses]
        assert got == expected
    assert concurrent.qps > serial.qps


def test_max_inflight_admission_bound():
    """Requests beyond the bound queue and complete rather than fail."""
    system = build_demo_system(**BUILD)
    requests = demo_requests(system, 7, 20)

    async def scenario(server):
        return await run_pool(
            server.host, server.port, requests,
            mode="closed", concurrency=10, collect=False,
        )

    report = _serve(scenario, system=system, max_inflight=2)
    assert report.errors == 0
    assert report.completed == len(requests)


# ----------------------------------------------------------------------
# Malformed input: always a 4xx with a JSON body, never a dead handler
# ----------------------------------------------------------------------
def _post(body: bytes, head: bytes = b"", length: int | None = None) -> bytes:
    length = len(body) if length is None else length
    return (
        b"POST /query HTTP/1.1\r\n" + head
        + b"Content-Length: " + str(length).encode() + b"\r\n\r\n" + body
    )


def _json(payload) -> bytes:
    return _post(json.dumps(payload).encode())


_GOOD = _json({"query": "(comp*, *)"})

# (name, request bytes, status, does the connection survive).  A request
# that was read whole but makes no sense costs only itself; the connection
# is closed where the server cannot know where the next request would begin.
MALFORMED = [
    ("query-int", _json({"query": 5}), 400, True),
    ("query-null", _json({"query": None}), 400, True),
    ("limit-str", _json({"query": "(comp*, *)", "limit": "3"}), 400, True),
    ("seed-str", _json({"query": "(comp*, *)", "seed": "abc"}), 400, True),
    ("seed-negative", _json({"query": "(comp*, *)", "seed": -1}), 400, True),
    ("seed-float", _json({"query": "(comp*, *)", "seed": 1.5}), 400, True),
    ("origin-bool", _json({"query": "(comp*, *)", "origin": True}), 400, True),
    ("json-100000-deep", _post(b"[" * 100_000 + b"]" * 100_000), 400, True),
    ("content-length-abc", b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400, False),
    ("content-length-negative", _post(b"", length=-5), 400, False),
    ("content-length-2MiB", _post(b"", length=2 << 20), 413, False),
    ("header-line-70000", _post(b"{}", head=b"X-Pad: " + b"a" * 70_000 + b"\r\n"), 431, False),
    ("header-lines-20000", _post(b"{}", head=b"X-Pad: a\r\n" * 20_000), 431, False),
    ("request-line-one-word", b"GARBAGE\r\n\r\n", 400, False),
]


def _read_response(sock: socket.socket) -> tuple[int, dict]:
    """One response off a blocking socket (which, unlike a stream reader,
    still hands over what arrived before the peer reset the connection)."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed with no complete response ({data!r})"
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = next(
        int(line.split(":")[1]) for line in lines if line.lower().startswith("content-length")
    )
    while len(body) < length:
        chunk = sock.recv(65536)
        assert chunk, "connection closed inside a response body"
        body += chunk
    return int(lines[0].split()[1]), json.loads(body)


def _exchange(port: int, data: bytes, survives: bool):
    """Send ``data`` on a fresh connection; what came back, and whether a
    well-formed request on the same connection is still answered."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        try:
            sock.sendall(data)
        except ConnectionError:
            pass  # answered and closed before the whole request was out
        status, body = _read_response(sock)
        if survives:
            sock.sendall(_GOOD)
            return status, body, _read_response(sock)[0]
        try:
            return status, body, sock.recv(65536)
        except ConnectionResetError:
            return status, body, b""


@pytest.mark.parametrize(
    "data, expected, survives", [pytest.param(*row[1:], id=row[0]) for row in MALFORMED]
)
def test_malformed_request_is_a_4xx(data, expected, survives):
    async def scenario(server):
        status, body, after = await asyncio.to_thread(
            _exchange, server.port, data, survives
        )
        async with QueryClient(server.host, server.port) as client:
            fresh = await client.query("(comp*, *)")
            return status, body, after, fresh, await client.get("/stats")

    status, body, after, fresh, stats = _serve(scenario)
    assert status == expected
    assert body["error"]
    assert after == (200 if survives else b"")
    assert fresh["result"]["complete"]
    assert stats["errors"] == 1


def test_close_drains_requests_and_idle_connections():
    """``close()`` serves what was already received, closes connections that
    are between requests, and returns with every gauge at zero."""
    system = build_demo_system(**BUILD)

    async def main():
        server = await QueryServer(system, per_message_delay=0.005).start()
        idle_reader, idle_writer = await asyncio.open_connection(server.host, server.port)
        idle_writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert (await read_http_response(idle_reader))[0] == 200
        async with QueryClient(server.host, server.port) as busy:
            in_flight = asyncio.ensure_future(
                busy.request("POST", "/query", {"query": "(*, *)", "priority": "batch"})
            )
            await asyncio.sleep(0.01)
            assert server.transport.inflight == 1
            await asyncio.wait_for(server.close(), timeout=10)
            assert in_flight.done()
            status, body = in_flight.result()
        assert await idle_reader.read() == b""  # closed by the server
        idle_writer.close()
        return status, body, server.stats(), server._class_occupancy

    status, body, stats, occupancy = asyncio.run(main())
    assert status == 200 and body["result"]["complete"]
    assert len(body["result"]["matches"]) == BUILD["n_docs"]
    assert stats["waiting"] == 0 and stats["inflight"] == 0
    assert occupancy == {"batch": 0}
