"""Asyncio query server: a thin HTTP/JSON front-end over a transport.

:class:`QueryServer` accepts HTTP/1.1 keep-alive connections on a plain
``asyncio.start_server`` socket (no web framework — the standard library is
the dependency budget) and multiplexes every in-flight request over one
shared :class:`~repro.net.transport.AsyncioTransport`.  Because the
transport preserves per-run message order, a served answer is bit-identical
to the same query resolved in process by :meth:`SquidSystem.query` —
``tests/net/`` asserts exactly that through :func:`encode_result`.

Routes
------
``POST /query``
    Body ``{"query": str, "origin"?: int, "limit"?: int, "seed"?: int,
    "priority"?: str|int}``.  ``origin`` pins the entry node; ``seed``
    derives the request's RNG (so origin selection is reproducible
    regardless of what else is in flight); ``priority`` is a
    :data:`~repro.guard.PRIORITIES` class name or rank (default
    interactive) threaded through to the engine and the transport's
    priority inboxes.  Response: ``{"result": <encode_result>,
    "stats": {...}}``.
``GET /healthz``
    Liveness plus ring size.
``GET /stats``
    Server counters and transport accounting (inflight, delivered, stale).
``GET /metrics``
    Snapshot of the active metrics registry (``{}`` when none is active).

Admission control is a semaphore (``max_inflight``) plus an honest front
door: with ``max_backlog`` set, at most that many requests may *wait* for
an execution slot — any further arrival is refused immediately with
``429 Too Many Requests`` and a ``Retry-After`` header instead of queueing
without bound.  Refusals are counted in :attr:`QueryServer.rejected`,
separately from ``errors`` (a 429 is the server protecting itself, not a
bad request).  ``class_quotas`` additionally caps how many requests of a
given priority class may occupy the front door at once, so background
floods cannot starve interactive traffic out of the backlog.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING, Any

from repro.errors import ReproError, ServingError
from repro.guard.plane import priority_name
from repro.net.transport import AsyncioTransport, Transport
from repro.obs import metrics as obs_metrics
from repro.util.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import QueryResult
    from repro.core.system import SquidSystem

__all__ = ["QueryServer", "encode_result", "read_http_request", "read_http_response"]

_MAX_REQUEST_BODY = 1 << 20  # 1 MiB of JSON is already a hostile query


def encode_result(result: "QueryResult") -> dict[str, Any]:
    """The JSON *answer* of a query: matches plus completeness.

    This is the serving layer's wire contract and the unit of the served
    bit-identity tests — it deliberately excludes :class:`QueryStats`
    (cost varies with shared-cache state and concurrency; the answer must
    not).  Matches keep engine order, which both transports reproduce.
    """
    return {
        "query": str(result.query),
        "matches": [
            {"index": int(e.index), "key": list(e.key), "payload": e.payload}
            for e in result.matches
        ],
        "complete": bool(result.complete),
        "unresolved_ranges": [
            [int(lo), int(hi)] for lo, hi in result.unresolved_ranges
        ],
    }


#: One encoder for every response (what ``json.dumps(..., sort_keys=True,
#: default=str)`` would build afresh on each call).
_encode_json = json.JSONEncoder(sort_keys=True, default=str).encode


class _Unframed(ServingError):
    """The byte stream is no longer readable as HTTP messages.

    The server answers ``status`` and closes the connection: whatever
    follows cannot be told apart from the rest of the broken message.
    """

    def __init__(self, status: bytes, reason: str) -> None:
        super().__init__(reason)
        self.status = status


async def _read_message(reader: asyncio.StreamReader):
    """One HTTP/1.1 message as ``(start_line, headers, body)``.

    The whole head is taken with a single ``readuntil``, so its size — and
    the number of header lines — is bounded by the reader's limit (64 KiB
    unless the stream was opened with another).  EOF before the message is
    complete raises :class:`asyncio.IncompleteReadError`.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.LimitOverrunError:
        raise _Unframed(
            b"431 Request Header Fields Too Large",
            "message head exceeds the stream limit",
        ) from None
    start, *lines = head[:-4].decode("latin-1").split("\r\n")
    headers: dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length") or 0)
        if length < 0:
            raise ValueError
    except ValueError:
        raise _Unframed(
            b"400 Bad Request",
            f"malformed content-length {headers['content-length']!r}",
        ) from None
    if length > _MAX_REQUEST_BODY:
        raise _Unframed(
            b"413 Payload Too Large",
            f"content-length {length} exceeds {_MAX_REQUEST_BODY} bytes",
        )
    body = await reader.readexactly(length) if length else b""
    return start, headers, body


async def read_http_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request into ``(method, path, headers, body)``.

    ``None`` when the peer closed the connection instead of (or while)
    sending one.
    """
    try:
        start, headers, body = await _read_message(reader)
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    parts = start.split()
    if len(parts) < 2:
        raise _Unframed(b"400 Bad Request", f"malformed request line: {start!r}")
    return parts[0].upper(), parts[1], headers, body


async def read_http_response(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 response into ``(status_code, headers, body)``."""
    try:
        start, headers, body = await _read_message(reader)
    except asyncio.IncompleteReadError:
        raise ServingError("connection closed before response") from None
    parts = start.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ServingError(f"malformed status line: {start!r}")
    return int(parts[1]), headers, body


def _response(status: bytes, payload: dict[str, Any], extra: dict[str, str]) -> bytes:
    """One response — head, ``extra`` header lines, JSON body — as one write."""
    data = _encode_json(payload).encode()
    head = (
        b"HTTP/1.1 " + status + b"\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: " + str(len(data)).encode() + b"\r\n"
    )
    for name, value in extra.items():
        head += name.encode("latin-1") + b": " + value.encode("latin-1") + b"\r\n"
    return head + b"\r\n" + data


def _int_field(payload: dict, name: str, minimum: int | None = None) -> int | None:
    """An optional integer field of a request body (a JSON boolean is not one)."""
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServingError(f'"{name}" must be an integer, got {value!r}')
    if minimum is not None and value < minimum:
        raise ServingError(f'"{name}" must be >= {minimum}, got {value}')
    return value


class QueryServer:
    """Serve Squid queries over HTTP/JSON from one shared transport.

    ``port=0`` (the default) binds an ephemeral port; read the bound value
    from :attr:`port` after :meth:`start`.  A custom ``transport`` may be
    injected (e.g. a :class:`~repro.net.transport.SyncTransport` for
    debugging); by default an :class:`AsyncioTransport` is built from the
    system/engine with the given tuning knobs.

    ``max_backlog=None`` (the default) keeps the legacy closed-loop
    behaviour: requests over ``max_inflight`` wait for a slot however long
    it takes.  Setting it bounds the waiting room — the overload-protection
    posture for open-loop traffic (see module docstring).
    """

    def __init__(
        self,
        system: "SquidSystem",
        engine=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        transport: Transport | None = None,
        max_inflight: int = 64,
        max_backlog: int | None = None,
        class_quotas: dict | None = None,
        retry_after: int = 1,
        inbox_capacity: int = 128,
        per_message_delay: float = 0.0,
    ) -> None:
        if max_inflight < 1:
            raise ServingError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_backlog is not None and max_backlog < 0:
            raise ServingError(f"max_backlog must be >= 0, got {max_backlog}")
        if retry_after < 1:
            raise ServingError(f"retry_after must be >= 1, got {retry_after}")
        self.system = system
        self.transport = transport if transport is not None else AsyncioTransport(
            system,
            engine,
            inbox_capacity=inbox_capacity,
            per_message_delay=per_message_delay,
        )
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.max_backlog = max_backlog
        self.retry_after = int(retry_after)
        #: Per-class front-door occupancy caps, keyed by priority name;
        #: validated eagerly so a typo fails at construction time.
        self.class_quotas: dict[str, int] = {}
        if class_quotas:
            for name, quota in class_quotas.items():
                canonical = priority_name(name)
                if quota < 0:
                    raise ServingError(
                        f"class quota for {canonical!r} must be >= 0, got {quota}"
                    )
                self.class_quotas[canonical] = int(quota)
        #: ``POST /query`` requests routed, and requests answered 400, 413
        #: or 431 — bad queries as well as input that could not be read as
        #: a request at all, so ``errors`` can exceed ``requests``.
        self.requests = 0
        self.errors = 0
        #: Requests refused with 429 (overload shedding at the front door);
        #: deliberately *not* part of ``errors``.
        self.rejected = 0
        #: Requests currently waiting for an execution slot.
        self.waiting = 0
        self._class_occupancy: dict[str, int] = {}
        self._sem = asyncio.Semaphore(max_inflight)
        self._server: asyncio.AbstractServer | None = None
        self._closing = False
        #: One task per open connection, and the writers of those that are
        #: between requests — what :meth:`close` drains.
        self._handlers: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryServer":
        """Bind the socket (resolving an ephemeral port) and start serving."""
        await self.transport.start()
        self._closing = False
        self._server = await asyncio.start_server(
            self._accept, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop accepting, drain, then close the transport.

        A request already received is served and answered; connections
        waiting for their next request are closed; every connection handler
        has returned before the transport goes away.
        """
        self._closing = True
        server, self._server = self._server, None
        if server is not None:
            server.close()
            for writer in self._idle:
                writer.close()
            if self._handlers:
                await asyncio.wait(self._handlers)
            await server.wait_closed()
        await self.transport.close()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServingError("QueryServer.serve_forever before start()")
        await self._server.serve_forever()

    async def __aenter__(self) -> "QueryServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        """Start the handler of a new connection as a task :meth:`close` awaits."""
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._closing:
                self._idle.add(writer)
                try:
                    request = await read_http_request(reader)
                except _Unframed as exc:
                    self.errors += 1
                    writer.write(_response(exc.status, {"error": str(exc)}, {}))
                    await writer.drain()
                    break
                finally:
                    self._idle.discard(writer)
                if request is None:
                    break
                method, path, headers, body = request
                status, payload, extra = await self._route(method, path, body)
                writer.write(_response(status, payload, extra))
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[bytes, dict[str, Any], dict[str, str]]:
        if method == "GET" and path == "/healthz":
            return b"200 OK", {
                "status": "ok",
                "nodes": len(self.system.overlay),
                "queries_served": self.transport.queries_served,
            }, {}
        if method == "GET" and path == "/stats":
            return b"200 OK", self.stats(), {}
        if method == "GET" and path == "/metrics":
            reg = obs_metrics.active()
            return b"200 OK", (reg.snapshot() if reg is not None else {}), {}
        if method == "POST" and path == "/query":
            return await self._handle_query(body)
        return b"404 Not Found", {"error": f"no route {method} {path}"}, {}

    def _reject(self, reason: str) -> tuple[bytes, dict[str, Any], dict[str, str]]:
        """Refuse a request at the front door: 429 + Retry-After, no queueing."""
        self.rejected += 1
        return (
            b"429 Too Many Requests",
            {"error": reason, "retry_after": self.retry_after},
            {"Retry-After": str(self.retry_after)},
        )

    async def _handle_query(
        self, body: bytes
    ) -> tuple[bytes, dict[str, Any], dict[str, str]]:
        self.requests += 1
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(payload, dict) or not isinstance(
                payload.get("query"), str
            ):
                raise ServingError('body must be a JSON object with a string "query"')
            query = payload["query"]
            origin = _int_field(payload, "origin")
            limit = _int_field(payload, "limit")
            seed = _int_field(payload, "seed", minimum=0)
            priority = priority_name(payload.get("priority"))
            rng = as_generator(seed) if seed is not None else None
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, ReproError) as exc:
            self.errors += 1
            return b"400 Bad Request", {"error": str(exc)}, {}
        occupancy = self._class_occupancy
        quota = self.class_quotas.get(priority)
        if quota is not None and occupancy.get(priority, 0) >= quota:
            return self._reject(f"class {priority!r} quota ({quota}) exhausted")
        if (
            self.max_backlog is not None
            and self._sem.locked()
            and self.waiting >= self.max_backlog
        ):
            return self._reject(
                f"backlog full ({self.waiting} waiting, cap {self.max_backlog})"
            )
        try:
            occupancy[priority] = occupancy.get(priority, 0) + 1
            self.waiting += 1
            try:
                await self._sem.acquire()
            finally:
                self.waiting -= 1
            try:
                result = await self.transport.submit(
                    query, origin=origin, rng=rng, limit=limit, priority=priority
                )
            finally:
                self._sem.release()
        except ReproError as exc:
            # A bad query/origin is the client's fault, not the server's.
            self.errors += 1
            return b"400 Bad Request", {"error": str(exc)}, {}
        finally:
            occupancy[priority] -= 1
        return b"200 OK", {
            "result": encode_result(result),
            "stats": result.stats.as_dict(),
        }, {}

    def stats(self) -> dict[str, Any]:
        """Server + transport counters (the ``/stats`` payload)."""
        transport = self.transport
        out = {
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "waiting": self.waiting,
            "max_inflight": self.max_inflight,
            "max_backlog": self.max_backlog,
            "queries_served": transport.queries_served,
            "nodes": len(self.system.overlay),
        }
        if isinstance(transport, AsyncioTransport):
            out.update(
                inflight=transport.inflight,
                messages_delivered=transport.messages_delivered,
                messages_stale=transport.messages_stale,
            )
        return out
