"""Retry, backoff, and failover policy for resilient query execution.

A :class:`RetryPolicy` tells :func:`repro.faults.delivery.deliver` — the
one place a query's messages meet the
:class:`~repro.faults.plane.FaultPlane` — how hard to fight the plane for
each physical message:

* up to ``max_attempts`` transmissions to the *same* destination, separated
  by per-hop timeouts growing exponentially (``timeout * backoff**n``) with
  seeded jitter drawn from the plane's RNG;
* after exhausting a destination (or immediately, for a known
  always-dropper), **failover** to the destination's ring successor, whose
  replica store can serve the unresponsive peer's share of the data;
* a hard ``budget`` on total transmissions per message, bounding worst-case
  cost on a badly broken network — when it runs out the branch is recorded
  as lost (``QueryResult.unresolved_ranges``) instead of retrying forever.

The policy object is immutable and engine-independent; the same instance
can be shared by many engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FaultError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a sender handles an unacknowledged transmission.

    ``max_attempts`` counts transmissions per destination *including* the
    first; ``budget`` bounds transmissions per logical message across all
    destinations tried (failover chains included).
    """

    max_attempts: int = 4
    budget: int = 12
    #: Base per-hop timeout charged (in latency-model units) before the
    #: first retransmission.
    timeout: float = 1.0
    #: Exponential backoff multiplier applied per additional attempt.
    backoff: float = 2.0
    #: Uniform jitter fraction added to each wait (0 disables jitter and
    #: keeps the policy from consuming plane randomness).
    max_jitter: float = 0.25
    #: Whether to fail over to the ring successor once a destination is
    #: exhausted (serving its range from replicas when available).
    failover: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.budget < self.max_attempts:
            raise FaultError(
                f"budget ({self.budget}) must be >= max_attempts "
                f"({self.max_attempts})"
            )
        if self.timeout < 0 or self.backoff < 1.0 or self.max_jitter < 0:
            raise FaultError(
                "timeout must be >= 0, backoff >= 1, max_jitter >= 0"
            )

    def wait_for(self, attempt: int, rng: np.random.Generator) -> float:
        """Timeout charged after the ``attempt``-th failed transmission.

        Exponential backoff with seeded jitter: ``timeout * backoff**(a-1)``
        scaled by ``1 + U(0, max_jitter)`` drawn from ``rng`` (the fault
        plane's generator, keeping the whole schedule replayable).
        """
        base = self.timeout * self.backoff ** max(0, attempt - 1)
        if self.max_jitter > 0:
            base *= 1.0 + float(rng.uniform(0.0, self.max_jitter))
        return base
