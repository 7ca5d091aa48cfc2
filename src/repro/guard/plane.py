"""Per-node load guards: bounded queues, token buckets, priority classes.

The :class:`GuardPlane` tracks, per node, how many work entries are
*pending* (posted but not yet processed) and decides at processing time
whether the node accepts the entry or sheds it.  Three guards compose:

``queue_high`` / ``queue_low``
    Watermarks on the pending backlog with a hysteresis latch: once the
    backlog behind an entry exceeds ``queue_high`` the node enters the
    *overloaded* state and sheds every non-protected entry until the
    backlog drains to ``queue_low``.  The latch prevents flapping at the
    boundary.
``queue_limit``
    A hard per-node bound.  At or above it the node sheds *every*
    priority class, protected or not — the backstop that keeps a node's
    queue finite no matter the traffic mix.
``bucket_capacity`` / ``bucket_refill``
    A per-node token bucket throttling the node's processing rate for
    non-protected classes.  The bucket runs on the plane's **logical
    clock** — one tick per entry processed anywhere under the plane — so
    refill is proportional to system-wide progress, decisions are
    deterministic, and no wall clock or RNG is consumed.

Priority classes (``interactive`` = 0, ``batch`` = 1, ``background`` = 2)
rank sheddability: ranks at or below ``protected_rank`` bypass the
watermarks and the bucket and can only be shed by ``queue_limit``.

Accounting is conservative and explicit: transports call
:meth:`GuardPlane.note_posted` when they enqueue an entry,
:meth:`GuardPlane.admit` when a node is about to process it, and
:meth:`GuardPlane.note_abandoned` for entries discarded unprocessed
(discovery-limit early stop, stale envelopes, a served run cancelled or
failing mid-flight), so the pending gauge does not drift.  ``guard.*``
metrics are emitted only when a guard actually trips, keeping
zero-overload metric registries byte-identical to unguarded runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GuardError
from repro.obs import metrics as obs_metrics

__all__ = [
    "PRIORITIES",
    "GuardConfig",
    "GuardPlane",
    "GuardStats",
    "TokenBucket",
    "priority_name",
    "priority_rank",
]

#: Priority class names in rank order: rank 0 is the most protected.
PRIORITIES = ("interactive", "batch", "background")


def priority_rank(priority) -> int:
    """Normalize a priority (name, rank, or ``None``) to its numeric rank.

    ``None`` means "unspecified" and maps to rank 0 (``interactive``) so
    that existing callers keep today's behavior: unclassified traffic is
    never shed by watermarks or buckets, only by the hard queue limit.
    """
    if priority is None:
        return 0
    if isinstance(priority, bool):
        raise GuardError(f"invalid priority {priority!r}")
    if isinstance(priority, int):
        if 0 <= priority < len(PRIORITIES):
            return priority
        raise GuardError(
            f"priority rank {priority} out of range 0..{len(PRIORITIES) - 1}"
        )
    if isinstance(priority, str):
        try:
            return PRIORITIES.index(priority)
        except ValueError:
            raise GuardError(
                f"unknown priority {priority!r}; choose from {PRIORITIES}"
            ) from None
    raise GuardError(f"invalid priority {priority!r}")


def priority_name(rank: int) -> str:
    """The class name for a numeric rank (inverse of :func:`priority_rank`)."""
    return PRIORITIES[priority_rank(rank)]


class TokenBucket:
    """A token bucket on a caller-supplied monotone logical clock.

    ``take(now)`` first credits ``refill`` tokens per clock tick elapsed
    since the last call (capped at ``capacity``), then spends one token if
    available.  With an integer logical clock the arithmetic is exact and
    platform-independent, so a guarded run is reproducible bit-for-bit.
    """

    __slots__ = ("capacity", "refill", "tokens", "last_tick")

    def __init__(self, capacity: int, refill: float, now: int = 0) -> None:
        if capacity < 1:
            raise GuardError(f"bucket capacity must be >= 1, got {capacity}")
        if refill < 0:
            raise GuardError(f"bucket refill must be >= 0, got {refill}")
        self.capacity = capacity
        self.refill = refill
        self.tokens = float(capacity)
        self.last_tick = now

    def take(self, now: int) -> bool:
        """Credit elapsed refill, then consume one token; False if dry."""
        if now > self.last_tick:
            self.tokens = min(
                float(self.capacity),
                self.tokens + (now - self.last_tick) * self.refill,
            )
            self.last_tick = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class GuardConfig:
    """Guard thresholds; all limits default to off (an inert plane).

    ``queue_low`` defaults to half of ``queue_high``.  ``protected_rank``
    is the highest rank that bypasses watermark/bucket shedding (0 means
    only ``interactive`` is protected; -1 protects nothing).
    """

    queue_high: int | None = None
    queue_low: int | None = None
    queue_limit: int | None = None
    bucket_capacity: int | None = None
    bucket_refill: float = 1.0
    protected_rank: int = 0

    def __post_init__(self) -> None:
        if self.queue_high is not None and self.queue_high < 1:
            raise GuardError(f"queue_high must be >= 1, got {self.queue_high}")
        if self.queue_low is not None:
            if self.queue_high is None:
                raise GuardError("queue_low requires queue_high")
            if not 0 <= self.queue_low <= self.queue_high:
                raise GuardError(
                    f"queue_low must be in 0..queue_high, got {self.queue_low}"
                )
        if self.queue_limit is not None:
            if self.queue_limit < 1:
                raise GuardError(
                    f"queue_limit must be >= 1, got {self.queue_limit}"
                )
            if self.queue_high is not None and self.queue_limit < self.queue_high:
                raise GuardError("queue_limit must be >= queue_high")
        if self.bucket_capacity is not None and self.bucket_capacity < 1:
            raise GuardError(
                f"bucket_capacity must be >= 1, got {self.bucket_capacity}"
            )
        if self.bucket_refill < 0:
            raise GuardError(
                f"bucket_refill must be >= 0, got {self.bucket_refill}"
            )
        if not -1 <= self.protected_rank < len(PRIORITIES):
            raise GuardError(
                f"protected_rank must be in -1..{len(PRIORITIES) - 1}, "
                f"got {self.protected_rank}"
            )

    @property
    def active(self) -> bool:
        """True if any guard is configured; an inactive plane is bypassed."""
        return (
            self.queue_high is not None
            or self.queue_limit is not None
            or self.bucket_capacity is not None
        )

    @property
    def low_watermark(self) -> int:
        """The effective low watermark (defaults to ``queue_high // 2``)."""
        if self.queue_low is not None:
            return self.queue_low
        return (self.queue_high or 0) // 2


@dataclass
class GuardStats:
    """Counters of what the plane did."""

    admitted: int = 0
    shed_queue: int = 0
    shed_throttle: int = 0
    overload_events: int = 0
    abandoned: int = 0
    max_pending: int = 0
    shed_by_class: dict[str, int] = field(default_factory=dict)

    @property
    def shed(self) -> int:
        """Total entries shed, across queue and throttle guards."""
        return self.shed_queue + self.shed_throttle

    def as_dict(self) -> dict:
        """Plain-dict snapshot (stable keys, JSON-serializable)."""
        return {
            "admitted": self.admitted,
            "shed_queue": self.shed_queue,
            "shed_throttle": self.shed_throttle,
            "shed": self.shed,
            "overload_events": self.overload_events,
            "abandoned": self.abandoned,
            "max_pending": self.max_pending,
            "shed_by_class": dict(sorted(self.shed_by_class.items())),
        }


class _NodeGuard:
    """Mutable per-node state: pending gauge, overload latch, bucket."""

    __slots__ = ("pending", "overloaded", "bucket")

    def __init__(self, bucket: TokenBucket | None) -> None:
        self.pending = 0
        self.overloaded = False
        self.bucket = bucket


class GuardPlane:
    """The per-node overload guards for every node under one engine.

    One plane instance is shared by every run of the engine(s) it is
    attached to, so the pending gauges see *concurrent* load — that is
    the point.  The plane is single-threaded state (asyncio or the sync
    pump).
    """

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config or GuardConfig()
        self.stats = GuardStats()
        self.clock = 0
        self._nodes: dict[int, _NodeGuard] = {}

    @property
    def active(self) -> bool:
        """False when no guard is configured: engines bypass the plane."""
        return self.config.active

    def _node(self, node_id: int) -> _NodeGuard:
        guard = self._nodes.get(node_id)
        if guard is None:
            cfg = self.config
            bucket = (
                TokenBucket(cfg.bucket_capacity, cfg.bucket_refill, self.clock)
                if cfg.bucket_capacity is not None
                else None
            )
            guard = self._nodes[node_id] = _NodeGuard(bucket)
        return guard

    def note_posted(self, node_id: int) -> None:
        """A work entry was enqueued for ``node_id`` (raises its gauge)."""
        guard = self._node(node_id)
        guard.pending += 1
        if guard.pending > self.stats.max_pending:
            self.stats.max_pending = guard.pending

    def note_abandoned(self, node_id: int) -> None:
        """An enqueued entry was discarded unprocessed (early stop, stale)."""
        guard = self._node(node_id)
        if guard.pending > 0:
            guard.pending -= 1
        self.stats.abandoned += 1

    def pending(self, node_id: int) -> int:
        """Current pending gauge for ``node_id`` (test/observability hook)."""
        guard = self._nodes.get(node_id)
        return guard.pending if guard is not None else 0

    def admit(self, node_id: int, rank: int = 0) -> bool:
        """Decide whether ``node_id`` processes the next entry or sheds it.

        Called exactly once per posted entry, right before processing;
        lowers the pending gauge either way.  The *backlog* a decision
        sees is the queue depth behind this entry.  Returns False when
        the entry must be shed.
        """
        guard = self._node(node_id)
        self.clock += 1
        if guard.pending > 0:
            guard.pending -= 1
        backlog = guard.pending
        cfg = self.config
        if cfg.queue_limit is not None and backlog >= cfg.queue_limit:
            return self._shed(rank, "queue")
        if rank > cfg.protected_rank:
            if guard.overloaded:
                if backlog <= cfg.low_watermark:
                    guard.overloaded = False
                else:
                    return self._shed(rank, "queue")
            elif cfg.queue_high is not None and backlog > cfg.queue_high:
                guard.overloaded = True
                self.stats.overload_events += 1
                registry = obs_metrics.active()
                if registry is not None:
                    registry.counter("guard.overload_events.total").inc()
                return self._shed(rank, "queue")
            if guard.bucket is not None and not guard.bucket.take(self.clock):
                return self._shed(rank, "throttle")
        self.stats.admitted += 1
        return True

    def _shed(self, rank: int, reason: str) -> bool:
        """Record one shed decision (stats + metrics); always False."""
        if reason == "queue":
            self.stats.shed_queue += 1
        else:
            self.stats.shed_throttle += 1
        name = PRIORITIES[rank]
        by_class = self.stats.shed_by_class
        by_class[name] = by_class.get(name, 0) + 1
        registry = obs_metrics.active()
        if registry is not None:
            registry.counter("guard.sheds.total").inc()
            registry.counter(f"guard.sheds.{reason}").inc()
        return False
