"""Process-wide metrics registry: counters, gauges, histograms.

Components across the stack — the query engines, :class:`ChordRing`
routing, :class:`LocalStore`, load balancing, replication, and the caching
layer — report into the *active* registry when one is attached.  With no
registry attached (the default) every report site reduces to one ``None``
check, so the instrumentation is free on the benchmark paths.

Usage::

    from repro.obs import MetricsRegistry, set_registry

    registry = MetricsRegistry()
    set_registry(registry)
    ...  # run queries, churn, load balancing
    snapshot = registry.snapshot()      # deterministic, sorted dict
    set_registry(None)                  # detach

or, scoped::

    from repro.obs import collecting
    with collecting() as registry:
        system.query("(comp*, *)")
    print(registry.snapshot()["counters"]["overlay.routes"])

Snapshots are plain nested dictionaries with sorted keys: two identical
(seeded) runs produce byte-identical snapshots, which tests rely on.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "set_registry",
    "get_registry",
    "active",
    "collecting",
]

#: Default histogram bucket upper bounds (inclusive); a final overflow
#: bucket catches everything larger.
DEFAULT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000, 10000)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.name = name
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total: float = 0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, Any]:
        buckets = {f"<={b:g}": c for b, c in zip(self.bounds, self.bucket_counts)}
        buckets["inf"] = self.bucket_counts[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, count={self.count}, mean={self.mean:.2f})"


class MetricsRegistry:
    """Named counters/gauges/histograms with deterministic snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """All metrics as a nested dict with sorted keys (deterministic)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            },
        }

    def to_text(self) -> str:
        """Aligned one-metric-per-line rendering of a snapshot."""
        snap = self.snapshot()
        lines = []
        for name, value in snap["counters"].items():
            lines.append(f"{name:<40s} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"{name:<40s} {value:g}")
        for name, h in snap["histograms"].items():
            lines.append(
                f"{name:<40s} count={h['count']} sum={h['sum']:g} "
                f"min={h['min']} max={h['max']}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


# ----------------------------------------------------------------------
# The process-wide active registry
# ----------------------------------------------------------------------
_REGISTRY: MetricsRegistry | None = None


def set_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` as the active one; returns the previous."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def get_registry() -> MetricsRegistry | None:
    """The active registry, or ``None`` when metrics are detached."""
    return _REGISTRY


#: Alias used by instrumentation sites (``reg = active()``; skip if None).
active = get_registry


@contextmanager
def collecting(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Scope with a registry attached; restores the previous one on exit."""
    reg = registry if registry is not None else MetricsRegistry()
    previous = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(previous)
