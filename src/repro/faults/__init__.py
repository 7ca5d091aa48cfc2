"""Fault injection and resilience policy for query execution.

This package holds the three pieces the resilient query path is built from:

* :class:`~repro.faults.plane.FaultPlane` — a deterministic, seeded
  injector of message drops, delays, duplication, slow nodes, and
  crash-during-query, sitting between engine dispatch and overlay routing;
* :class:`~repro.faults.retry.RetryPolicy` — per-hop timeouts, retry with
  exponential backoff and seeded jitter, successor failover, and a bounded
  retry budget;
* :func:`~repro.faults.delivery.deliver` — one message pushed through the
  plane under the policy: the retry, failover and crash re-route loop the
  engines call wherever a message can be faulted.

Wire the plane and policy into :class:`~repro.core.engine.OptimizedEngine`
(its ``fault_plane``/``retry``/``replication`` parameters) to get graceful
degradation with partial-result accounting; see ``docs/resilience.md`` and
the ``python -m repro chaos`` subcommand for end-to-end usage.

This package deliberately does not import :mod:`repro.core` at runtime —
the dependency points the other way (engines consume planes/policies).
"""

from repro.faults.plane import FaultConfig, FaultOutcome, FaultPlane, FaultStats
from repro.faults.retry import RetryPolicy

__all__ = [
    "FaultConfig",
    "FaultOutcome",
    "FaultPlane",
    "FaultStats",
    "RetryPolicy",
]
