"""Observability: structured tracing, metrics registry, phase profiling.

Three independent, individually opt-in facilities:

* :mod:`repro.obs.trace` — per-query refinement-tree traces with typed
  events; attach a :class:`Tracer` to a system and read
  ``result.trace.to_tree()``;
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters/gauges/histograms that the engines, overlay, stores, load
  balancer, replication, and cache layer report into;
* :mod:`repro.obs.profile` — wall-time/call-count profiling of the hot SFC
  encode/refine paths (``python -m repro report --profile``).

All three are zero-cost no-ops when detached (the default).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active,
    collecting,
    get_registry,
    set_registry,
)
from repro.obs.profile import (
    PhaseProfiler,
    disable_profiling,
    enable_profiling,
    profiling,
)
from repro.obs.trace import (
    Aggregated,
    BranchLost,
    ClusterRefined,
    KeyMoved,
    LocalScan,
    MessageSent,
    NodeJoined,
    NodeLeft,
    Pruned,
    QueryTrace,
    Span,
    Tracer,
)

__all__ = [
    "Tracer",
    "QueryTrace",
    "Span",
    "ClusterRefined",
    "MessageSent",
    "Pruned",
    "Aggregated",
    "LocalScan",
    "BranchLost",
    "KeyMoved",
    "NodeJoined",
    "NodeLeft",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "set_registry",
    "get_registry",
    "active",
    "collecting",
    "PhaseProfiler",
    "enable_profiling",
    "disable_profiling",
    "profiling",
]
