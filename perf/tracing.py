"""Spans recorded from outside the program, around its public callables.

The recorder wraps — on the instances the benchmark itself built —
``space.as_query/region/matches``, ``overlay.route/join/leave``, every store's
``scan_ranges/add/add_sorted_bulk/pop_range``, the plan and result caches,
the engine's ``begin_run/process_message/finish_run``, ``transport.submit``
and ``encode_result``, and doubles as the ``repro.obs`` phase profiler so the
program's own ``sfc.*`` phases become spans too.  Nothing in ``src/`` changes.

A span is ``[name, start, end, parent, request]``; parents are tracked with a
context variable, so spans of requests that interleave on the server's event
loop still nest correctly.  Calls made thousands of times per query
(``matches``, ``add``, ``pop_range``) are not stored one by one: they add
``[calls, seconds]`` to a total kept per (enclosing span, name).

A span's *self time* is its duration minus the part its child spans cover and
minus the leaf totals recorded directly under it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextvars import ContextVar
from time import perf_counter

from repro.obs import PhaseProfiler

__all__ = ["Recorder", "LAYER_OF"]

_SPAN: ContextVar[int] = ContextVar("perf_span", default=-1)
_REQUEST: ContextVar[int] = ContextVar("perf_request", default=-1)

#: Span-name prefix -> the repo module (layer) its self time belongs to.
LAYER_OF = {
    "keywords": "keywords",
    "sfc": "sfc",
    "plancache": "core.plancache",
    "engine": "core.engine",
    "overlay": "overlay",
    "store": "store",
    "resultcache": "core.resultcache",
    "transport": "net.transport",
    "server": "net.server",
}

#: Phases of the program's own profiler that become spans.  ``sfc.refine_vec``
#: (inside ``sfc.refine``) and ``engine.scan`` (store scan plus match filter,
#: both wrapped here) would only double-count.
_PHASE_SPANS = frozenset({"sfc.refine", "sfc.resolve", "sfc.encode"})


class Recorder(PhaseProfiler):
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[list] = []
        self.leaf: dict[tuple[int, str], list] = {}
        self.scanned = 0  # elements handed to the match filter
        self.added = 0  # elements inserted into stores
        self.waiting_max = 0  # most requests seen waiting for a server slot
        #: Served runs: ``(query text, origin)`` per submit, in arrival order.
        self.submitted: list[tuple[str, int | None]] = []
        self._in_leaf = False
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def set_request(self, index: int) -> None:
        _REQUEST.set(index)

    def begin(self, name: str):
        parent = _SPAN.get()
        request = self.spans[parent][4] if parent >= 0 else _REQUEST.get()
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, request]
        self.spans.append(span)
        token = _SPAN.set(index)
        span[1] = perf_counter()
        return span, token

    @staticmethod
    def end(span, token) -> None:
        span[2] = perf_counter()
        _SPAN.reset(token)

    def record(self, phase: str, seconds: float) -> None:
        """``repro.obs`` profiler hook: a finished phase of the program."""
        super().record(phase, seconds)
        if phase in _PHASE_SPANS:
            stop = perf_counter()
            parent = _SPAN.get()
            request = self.spans[parent][4] if parent >= 0 else _REQUEST.get()
            self.spans.append([phase, stop - seconds, stop, parent, request])

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _set(self, obj, attr: str, wrapper) -> None:
        self._undo.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, wrapper)

    def span(self, obj, attr: str, name: str) -> None:
        inner = getattr(obj, attr)

        def wrapper(*args, **kwargs):
            if self._in_leaf:  # e.g. ``as_query`` inside every ``matches``
                return inner(*args, **kwargs)
            span, token = self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(span, token)

        self._set(obj, attr, wrapper)

    def leaf_call(self, obj, attr: str, name: str, added=None) -> None:
        inner = getattr(obj, attr)
        totals = self.leaf

        def wrapper(*args):
            self._in_leaf = True
            start = perf_counter()
            try:
                return inner(*args)
            finally:
                seconds = perf_counter() - start
                self._in_leaf = False
                key = (_SPAN.get(), name)
                total = totals.get(key)
                if total is None:
                    totals[key] = [1, seconds]
                else:
                    total[0] += 1
                    total[1] += seconds
                if added is not None:
                    self.added += added(*args)

        self._set(obj, attr, wrapper)

    def store(self, store) -> None:
        """Wrap one node store.  The scan iterator is materialised inside the
        span, so scan time is not charged to the match filter that consumes it."""
        inner = store.scan_ranges

        def scan_ranges(ranges):
            span, token = self.begin("store.scan")
            try:
                found = list(inner(ranges))
            finally:
                self.end(span, token)
            self.scanned += len(found)
            return found

        self._set(store, "scan_ranges", scan_ranges)
        self.leaf_call(store, "add", "store.add", added=lambda element: 1)
        self.leaf_call(store, "add_sorted_bulk", "store.add", added=len)
        self.leaf_call(store, "pop_range", "store.pop")

    def system(self, system, engine) -> None:
        """Wrap every layer of one in-process system."""
        space, overlay = system.space, system.overlay
        self.span(space, "as_query", "keywords.as_query")
        self.span(space, "region", "keywords.region")
        self.leaf_call(space, "matches", "keywords.matches")
        for attr in ("route", "join", "leave"):
            self.span(overlay, attr, f"overlay.{attr}")
        for store in system.stores.values():
            self.store(store)
        # Stores of nodes that join later come from the system's store recipe.
        self._set(system, "store_spec", _RecordingSpec(system.store_spec, self))
        self.span(system.plan_cache, "get", "plancache.get")
        self.span(system.plan_cache, "put", "plancache.put")
        if system.result_cache is not None:
            for attr in ("get", "put"):
                self.span(system.result_cache, attr, f"resultcache.{attr}")
            for attr in ("invalidate_point", "invalidate_range"):
                self.span(system.result_cache, attr, "resultcache.invalidate")
        for attr in ("begin_run", "process_message", "finish_run"):
            self.span(engine, attr, f"engine.{attr}")

    def server(self, server, module) -> None:
        """Wrap the serving path: ``transport.submit`` and ``encode_result``."""
        transport = server.transport
        inner = transport.submit

        async def submit(query, **kwargs):
            _REQUEST.set(len(self.submitted))
            self.submitted.append((str(query), kwargs.get("origin")))
            if server.waiting > self.waiting_max:
                self.waiting_max = server.waiting
            span, token = self.begin("transport.submit")
            try:
                return await inner(query, **kwargs)
            finally:
                self.end(span, token)

        self._set(transport, "submit", submit)
        self.span(module, "encode_result", "server.encode")

    def uninstall(self) -> None:
        for obj, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._undo.clear()

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Calls, total and self seconds per span name; leaf totals per name."""
        covered: dict[int, list] = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]].append((span[1], span[2]))
        leaf_under: dict[int, float] = defaultdict(float)
        leaf: dict[str, list] = {}
        for (parent, name), (calls, seconds) in self.leaf.items():
            leaf_under[parent] += seconds
            total = leaf.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        names: dict[str, list] = {}
        for index, span in enumerate(self.spans):
            duration = span[2] - span[1]
            own = duration - _union(covered.get(index)) - leaf_under.get(index, 0.0)
            total = names.setdefault(span[0], [0, 0.0, 0.0])
            total[0] += 1
            total[1] += duration
            total[2] += own
        return {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(names.items())
            },
            "leaf": {
                name: {"calls": c, "total_s": s, "self_s": s}
                for name, (c, s) in sorted(leaf.items())
            },
            "scanned": self.scanned,
            "added": self.added,
            "waiting_max": self.waiting_max,
        }

    def write(self, path, origin_time: float, request_of=None) -> None:
        """Dump every span (times relative to ``origin_time``, seconds).

        ``request_of`` maps a server-side arrival number to the request's
        index in the generated list (served runs).
        """
        names = sorted({span[0] for span in self.spans} | {n for _, n in self.leaf})
        code = {name: i for i, name in enumerate(names)}

        def request(value):
            if request_of is None or value < 0:
                return value
            return request_of[value] if value < len(request_of) else -1

        document = {
            "names": names,
            "span_columns": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [
                [code[n], round(a - origin_time, 7), round(b - origin_time, 7), p, request(r)]
                for n, a, b, p, r in self.spans
            ],
            "leaf_columns": ["parent", "name", "calls", "seconds"],
            "leaf": [
                [parent, code[name], calls, round(seconds, 7)]
                for (parent, name), (calls, seconds) in self.leaf.items()
            ],
        }
        with open(path, "w") as out:
            json.dump(document, out, separators=(",", ":"))


class _RecordingSpec:
    """Stands in for ``system.store_spec`` so joined nodes get wrapped stores."""

    def __init__(self, spec, recorder: Recorder) -> None:
        self._spec = spec
        self._recorder = recorder

    def create(self, node_id=None):
        store = self._spec.create(node_id=node_id)
        self._recorder.store(store)
        return store


_MISSING = object()


def _union(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    if not intervals:
        return 0.0
    total, (low, high) = 0.0, (0.0, -1.0)
    for start, end in sorted(intervals):
        if start > high:
            total += high - low if high > low else 0.0
            low, high = start, end
        elif end > high:
            high = end
    return total + (high - low)
