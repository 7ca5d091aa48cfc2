"""Lightweight phase profiling for the hot SFC encode/refine paths.

A :class:`PhaseProfiler` accumulates wall-time and call counts per named
phase.  The hot paths (``sfc.encode``, ``sfc.refine``, ``sfc.resolve``,
``engine.scan``) carry permanent hooks that check the module-level active
profiler once per call and do nothing when profiling is disabled (the
default), so tier-1 benchmarks are unaffected.

Usage::

    from repro.obs import profiling

    with profiling() as profiler:
        system.query("(comp*, *)")
    print(profiler.to_text())

or imperatively via :func:`enable_profiling` / :func:`disable_profiling`.
``python -m repro run/report --profile`` surfaces the same table after an
experiment run.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

__all__ = [
    "PhaseProfiler",
    "enable_profiling",
    "disable_profiling",
    "profiling",
]


class PhaseProfiler:
    """Per-phase wall-time and call-count accumulator."""

    def __init__(self) -> None:
        self._calls: dict[str, int] = {}
        self._seconds: dict[str, float] = {}

    def record(self, phase: str, seconds: float) -> None:
        self._calls[phase] = self._calls.get(phase, 0) + 1
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block under ``name`` (composable with the built-in hooks)."""
        start = perf_counter()
        try:
            yield
        finally:
            self.record(name, perf_counter() - start)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{phase: {"calls": n, "seconds": s}}`` with sorted phase names."""
        return {
            name: {"calls": self._calls[name], "seconds": self._seconds[name]}
            for name in sorted(self._calls)
        }

    def to_text(self) -> str:
        """Aligned table of phases, call counts, and wall time."""
        rows = self.snapshot()
        if not rows:
            return "(no profiled phases)"
        width = max(len(name) for name in rows)
        lines = [f"{'phase':<{width}}  {'calls':>10}  {'seconds':>10}"]
        for name, row in rows.items():
            lines.append(
                f"{name:<{width}}  {row['calls']:>10d}  {row['seconds']:>10.4f}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._calls.clear()
        self._seconds.clear()


#: The active profiler; hot-path hooks check this and no-op when ``None``.
_PROFILER: PhaseProfiler | None = None


def enable_profiling(profiler: PhaseProfiler | None = None) -> PhaseProfiler:
    """Install (and return) the active profiler."""
    global _PROFILER
    _PROFILER = profiler if profiler is not None else PhaseProfiler()
    return _PROFILER


def disable_profiling() -> PhaseProfiler | None:
    """Detach the active profiler; returns it (with its collected data)."""
    global _PROFILER
    profiler = _PROFILER
    _PROFILER = None
    return profiler


@contextmanager
def profiling(profiler: PhaseProfiler | None = None) -> Iterator[PhaseProfiler]:
    """Scope with profiling enabled; restores the previous state on exit."""
    global _PROFILER
    previous = _PROFILER
    prof = enable_profiling(profiler)
    try:
        yield prof
    finally:
        _PROFILER = previous
