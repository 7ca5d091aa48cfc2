"""Load generator for the query server: open-loop and closed-loop modes.

*Open loop* is the honest way to measure a service's latency: request ``i``
is *scheduled* at ``t0 + i/rate`` regardless of whether earlier requests
have finished, and its latency is measured **from the scheduled instant** —
so when the server falls behind, the queueing delay lands in the tail
percentiles instead of silently slowing the offered load (coordinated
omission).  *Closed loop* is the throughput probe: ``concurrency`` workers
fire back-to-back, measuring per-request service time and aggregate QPS.

Both modes drive a pool of keep-alive :class:`~repro.net.client.QueryClient`
connections, reuse the shared :func:`repro.util.stats.percentiles` helper
for the latency report, and can replay any request list — by default the
skewed :func:`repro.net.demo.demo_requests` trace built on
:mod:`repro.workloads.trace`.

The report is overload-aware: every response is tallied **per HTTP status
code** (a ``429`` the server shed at the front door is counted as
``rejected``, not as an error), answers with ``complete=False`` (engine-side
load shedding) are counted as ``shed_answers``, and a ``deadline`` only
*classifies* 200 responses as late — the generator never abandons a request,
so percentiles stay honest.  **Goodput** is the useful-work rate: complete,
in-deadline 200 answers per second.  An unguarded server under overload
keeps answering but late (high p99, low goodput); a guarded one fails fast
and sheds honestly (bounded p99, higher goodput) —
``tests/net/test_overload.py`` holds the system to exactly this trade.

:func:`run_loadgen` is the synchronous entry point behind
``python -m repro loadgen``; with ``self_serve=True`` it builds a seeded
demo system, starts a server on an ephemeral port, and points the generator
at it — the CI smoke legs (clean run via :meth:`LoadReport.check`, overload
run via :meth:`LoadReport.check_overload`).  ``guard=True`` arms the
self-served engine with a :class:`~repro.guard.GuardPlane` and bounds the
server's backlog, turning the smoke into an end-to-end overload-protection
exercise.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.errors import ServingError
from repro.net.client import QueryClient
from repro.net.demo import build_demo_system, demo_requests
from repro.util.stats import percentiles

__all__ = ["LoadReport", "run_pool", "run_loadgen"]

#: Default guard posture for ``run_loadgen(guard=True)`` self-serve runs:
#: shed unprotected work above a 32-entry node backlog, drain to half, and
#: hard-limit any backlog at 96 entries regardless of class.
DEFAULT_GUARD_KWARGS = dict(queue_high=32, queue_limit=96)


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str  #: ``"open"`` or ``"closed"``.
    concurrency: int  #: Connection-pool size (closed-loop worker count).
    rate: float | None  #: Open-loop target arrival rate (requests/s).
    sent: int
    completed: int
    errors: int
    duration_s: float
    #: ``{"p50": ..., "p95": ..., "p99": ...}`` in seconds, successful
    #: requests only; NaN when nothing succeeded.
    latency_s: dict[str, float] = field(default_factory=dict)
    #: Responses per HTTP status code (``{"200": ..., "429": ...}``);
    #: transport failures appear under ``"error"``.
    statuses: dict[str, int] = field(default_factory=dict)
    #: Requests the server refused with 429 (front-door shedding).  Not
    #: part of ``errors`` — a refusal is the server protecting itself.
    rejected: int = 0
    #: 200 answers that arrived with ``complete=False`` (the engine's guard
    #: plane shed part of the query tree; the matches are an honest subset).
    shed_answers: int = 0
    #: 200 answers slower than ``deadline_s`` (0 when no deadline was set).
    late_answers: int = 0
    #: Complete, in-deadline 200 answers — the useful-work numerator.
    good: int = 0
    #: The classification deadline applied to 200 answers, if any.
    deadline_s: float | None = None
    #: Decoded response bodies in request order (``collect=True`` runs
    #: only); failed and rejected requests hold None.
    responses: list[Any] | None = None

    @property
    def qps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def goodput(self) -> float:
        """Complete, in-deadline answers per second (useful work rate)."""
        return self.good / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def error_rate(self) -> float:
        return self.errors / self.sent if self.sent else 0.0

    @property
    def shed_fraction(self) -> float:
        """Fraction of the offered load shed (front door or engine)."""
        return (self.rejected + self.shed_answers) / self.sent if self.sent else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "rate": self.rate,
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "error_rate": self.error_rate,
            "rejected": self.rejected,
            "shed_answers": self.shed_answers,
            "late_answers": self.late_answers,
            "good": self.good,
            "goodput": self.goodput,
            "shed_fraction": self.shed_fraction,
            "deadline_s": self.deadline_s,
            "statuses": dict(self.statuses),
            "duration_s": self.duration_s,
            "qps": self.qps,
            "latency_ms": {
                label: value * 1e3 for label, value in self.latency_s.items()
            },
        }

    def check(self) -> None:
        """Raise :class:`ServingError` unless the run was clean.

        Clean means zero errors, zero front-door rejections, and finite
        p50/p95/p99 — the CI smoke contract (an all-error run would
        otherwise "pass" with NaN latencies).
        """
        if self.errors:
            raise ServingError(
                f"load run had {self.errors}/{self.sent} errors"
            )
        if self.rejected:
            raise ServingError(
                f"load run had {self.rejected}/{self.sent} rejections (429)"
            )
        self._check_finite_latency()

    def check_overload(self, max_shed_fraction: float = 0.5) -> None:
        """Raise unless an *overload* run degraded gracefully.

        Graceful means: the server never failed (no 5xx, no transport or
        4xx errors — refusals must be clean 429s), the shed fraction
        (front-door rejections plus incomplete answers) stayed within
        ``max_shed_fraction``, and latency percentiles over the answered
        requests are finite (at least one request got through).
        """
        fives = sum(
            count
            for code, count in self.statuses.items()
            if code.isdigit() and int(code) >= 500
        )
        if fives:
            raise ServingError(f"overload run produced {fives} 5xx responses")
        if self.errors:
            raise ServingError(
                f"overload run had {self.errors}/{self.sent} hard errors"
            )
        if self.shed_fraction > max_shed_fraction:
            raise ServingError(
                f"shed fraction {self.shed_fraction:.2f} exceeds "
                f"{max_shed_fraction:.2f} "
                f"({self.rejected} rejected + {self.shed_answers} shed "
                f"of {self.sent})"
            )
        self._check_finite_latency()

    def _check_finite_latency(self) -> None:
        bad = [
            label
            for label, value in self.latency_s.items()
            if not math.isfinite(value)
        ]
        if bad or not self.latency_s:
            raise ServingError(
                f"latency report not finite: {self.latency_s!r}"
            )

    def render(self) -> str:
        lat = ", ".join(
            f"{label}={value * 1e3:.1f}ms"
            for label, value in self.latency_s.items()
        )
        rate = f" rate={self.rate:g}/s" if self.rate is not None else ""
        codes = " ".join(
            f"{code}:{count}" for code, count in sorted(self.statuses.items())
        )
        return (
            f"{self.mode}-loop x{self.concurrency}{rate}: "
            f"{self.completed}/{self.sent} ok, {self.errors} errors, "
            f"{self.rejected} rejected, {self.shed_answers} shed, "
            f"{self.duration_s:.2f}s, {self.qps:.1f} qps, "
            f"{self.goodput:.1f} goodput, {lat} [{codes}]"
        )


async def run_pool(
    host: str,
    port: int,
    requests: list[dict[str, Any]],
    *,
    mode: str = "open",
    rate: float = 100.0,
    concurrency: int = 16,
    priority: str | int | None = None,
    deadline: float | None = None,
    collect: bool = False,
) -> LoadReport:
    """Replay ``requests`` against a running server; returns a report.

    Each request dict holds ``POST /query`` body fields (``query`` plus
    optional ``origin``/``limit``/``seed``/``priority``).  ``priority``
    stamps a default class onto requests that do not carry their own.
    ``deadline`` (seconds) classifies 200 answers as late without ever
    abandoning them.  In open-loop mode arrivals follow the target ``rate``
    and latency runs from the scheduled instant; in closed-loop mode the
    ``concurrency`` connections fire continuously and latency runs from
    connection acquisition.
    """
    if mode not in ("open", "closed"):
        raise ServingError(f"unknown loadgen mode {mode!r}")
    if mode == "open" and rate <= 0:
        raise ServingError(f"open-loop rate must be positive, got {rate}")
    if concurrency < 1:
        raise ServingError(f"concurrency must be >= 1, got {concurrency}")
    if deadline is not None and deadline <= 0:
        raise ServingError(f"deadline must be positive, got {deadline}")
    n = len(requests)
    responses: list[Any] | None = [None] * n if collect else None
    latencies: list[float | None] = [None] * n
    #: Per-request outcome: an HTTP status code, or "error" on transport
    #: failure, paired with the answer's completeness (200s only).
    outcomes: list[tuple[str, bool]] = [("error", False)] * n
    pool_size = max(1, min(concurrency, n or 1))
    clients = [
        await QueryClient(host, port).connect() for _ in range(pool_size)
    ]
    pool: asyncio.Queue = asyncio.Queue()
    for client in clients:
        pool.put_nowait(client)
    t0 = perf_counter()

    async def fire(i: int, req: dict[str, Any]) -> None:
        payload = dict(req)
        if priority is not None and "priority" not in payload:
            payload["priority"] = priority
        scheduled = t0 + i / rate if mode == "open" else None
        if scheduled is not None:
            delay = scheduled - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        client = await pool.get()
        start = scheduled if scheduled is not None else perf_counter()
        try:
            status, decoded = await client.request("POST", "/query", payload)
        except (ServingError, ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            pool.put_nowait(client)
        if status != 200:
            outcomes[i] = (str(status), False)
            return
        latencies[i] = perf_counter() - start
        complete = bool(decoded.get("result", {}).get("complete", True))
        outcomes[i] = ("200", complete)
        if responses is not None:
            responses[i] = decoded

    try:
        await asyncio.gather(*(fire(i, req) for i, req in enumerate(requests)))
        duration = perf_counter() - t0
    finally:
        for client in clients:
            await client.close()
    statuses: dict[str, int] = {}
    for code, _ in outcomes:
        statuses[code] = statuses.get(code, 0) + 1
    completed = statuses.get("200", 0)
    rejected = statuses.get("429", 0)
    errors = n - completed - rejected
    shed_answers = sum(
        1 for code, complete in outcomes if code == "200" and not complete
    )
    late_answers = sum(
        1
        for lat in latencies
        if lat is not None and deadline is not None and lat > deadline
    )
    good = sum(
        1
        for (code, complete), lat in zip(outcomes, latencies)
        if code == "200"
        and complete
        and (deadline is None or (lat is not None and lat <= deadline))
    )
    return LoadReport(
        mode=mode,
        concurrency=pool_size,
        rate=rate if mode == "open" else None,
        sent=n,
        completed=completed,
        errors=errors,
        duration_s=duration,
        latency_s=percentiles([lat for lat in latencies if lat is not None]),
        statuses=statuses,
        rejected=rejected,
        shed_answers=shed_answers,
        late_answers=late_answers,
        good=good,
        deadline_s=deadline,
        responses=responses,
    )


def run_loadgen(
    host: str = "127.0.0.1",
    port: int | None = None,
    *,
    requests: list[dict[str, Any]] | None = None,
    queries: int = 200,
    mode: str = "open",
    rate: float = 100.0,
    concurrency: int = 16,
    priority: str | int | None = None,
    deadline: float | None = None,
    seed: int = 42,
    self_serve: bool = False,
    nodes: int = 64,
    docs: int = 2_000,
    engine: str = "optimized",
    per_message_delay: float = 0.0,
    guard: bool = False,
    max_inflight: int | None = None,
    max_backlog: int | None = None,
    check: bool = False,
    check_overload: bool = False,
    max_shed_fraction: float = 0.5,
) -> LoadReport:
    """Synchronous load-generation entry point (the ``loadgen`` command).

    Against an external server, pass ``host``/``port``; with
    ``self_serve=True`` a seeded demo system and server are built in-process
    on an ephemeral port (no prior ``serve`` needed — the CI smoke path).
    ``guard=True`` arms the self-served engine with a
    :class:`~repro.guard.GuardPlane` (:data:`DEFAULT_GUARD_KWARGS`) so node
    backlogs shed unprotected work honestly; ``max_inflight`` /
    ``max_backlog`` tune the server's front door (backlog bounding turns
    sustained overload into clean 429s).  ``check=True`` raises unless the
    run was spotless; ``check_overload=True`` instead asserts graceful
    degradation (no 5xx or hard errors, shed fraction within
    ``max_shed_fraction``, finite percentiles).
    """
    if not self_serve and port is None:
        raise ServingError("loadgen needs --port (or --self-serve)")

    async def _main() -> LoadReport:
        if not self_serve:
            reqs = (
                requests
                if requests is not None
                else demo_requests(None, seed, queries)
            )
            return await run_pool(
                host, port, reqs, mode=mode, rate=rate,
                concurrency=concurrency, priority=priority, deadline=deadline,
            )
        from repro.net.server import QueryServer

        eng: Any = engine
        if guard:
            from repro.core.engine import make_engine
            from repro.guard import GuardConfig, GuardPlane

            eng = make_engine(
                engine, guard=GuardPlane(GuardConfig(**DEFAULT_GUARD_KWARGS))
            )
        system = build_demo_system(
            seed=seed, n_nodes=nodes, n_docs=docs, engine=eng
        )
        reqs = (
            requests
            if requests is not None
            else demo_requests(system, seed, queries)
        )
        async with QueryServer(
            system,
            per_message_delay=per_message_delay,
            max_inflight=(
                max_inflight if max_inflight is not None else max(64, concurrency)
            ),
            max_backlog=max_backlog,
        ) as server:
            return await run_pool(
                server.host,
                server.port,
                reqs,
                mode=mode,
                rate=rate,
                concurrency=concurrency,
                priority=priority,
                deadline=deadline,
            )

    report = asyncio.run(_main())
    if check:
        report.check()
    if check_overload:
        report.check_overload(max_shed_fraction)
    return report
