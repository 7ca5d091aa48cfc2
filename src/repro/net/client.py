"""Minimal asyncio HTTP/JSON client for :class:`~repro.net.server.QueryServer`.

One :class:`QueryClient` holds one keep-alive connection; requests on a
single client are strictly sequential (HTTP/1.1 without pipelining), so
concurrency means *many clients* — which is exactly how the load generator
models concurrent users.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import ServingError
from repro.net.server import read_http_response

__all__ = ["QueryClient"]


class QueryClient:
    """A keep-alive JSON client bound to one server address."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "QueryClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "QueryClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        """One round-trip; returns ``(status_code, decoded_json_body)``."""
        if self._writer is None or self._reader is None:
            raise ServingError("QueryClient used before connect()")
        body = json.dumps(payload).encode() if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status, _, raw = await read_http_response(self._reader)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServingError(f"undecodable response body: {exc}") from exc
        return status, decoded

    async def get(self, path: str) -> dict[str, Any]:
        """GET ``path``; raises :class:`ServingError` on a non-200 status."""
        status, decoded = await self.request("GET", path)
        if status != 200:
            raise ServingError(f"GET {path} -> {status}: {decoded.get('error')}")
        return decoded

    async def query(
        self,
        query: str,
        origin: int | None = None,
        limit: int | None = None,
        seed: int | None = None,
    ) -> dict[str, Any]:
        """POST one query; returns the ``{"result": ..., "stats": ...}`` body.

        Raises :class:`ServingError` on any non-200 response, carrying the
        server's error message.
        """
        payload: dict[str, Any] = {"query": query}
        if origin is not None:
            payload["origin"] = origin
        if limit is not None:
            payload["limit"] = limit
        if seed is not None:
            payload["seed"] = seed
        status, decoded = await self.request("POST", "/query", payload)
        if status != 200:
            raise ServingError(
                f"query {query!r} -> {status}: {decoded.get('error')}"
            )
        return decoded
