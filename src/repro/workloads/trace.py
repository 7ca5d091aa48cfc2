"""Trace-replay workloads: skewed synthetic traces and their replay.

Uniform synthetic sweeps are the one distribution real discovery systems
never see.  Real query streams are heavily skewed (Zipf popularity), bursty
(what was just asked is asked again immediately), and interleaved with
updates.  This module composes such streams as executable **traces**:
ordered sequences of query / publish / unpublish operations against a
:class:`~repro.core.system.SquidSystem`.

:func:`synthetic_trace` composes a query pool into a full trace with Zipf
popularity, geometric bursts, and a configurable publish:query mix — the
workload shape that makes a result cache (:mod:`repro.core.resultcache`)
measurable and its invalidation necessary.  :func:`replay` executes a trace
in process and reports per-operation outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import WorkloadError
from repro.keywords.query import Query
from repro.util.rng import RandomLike, as_generator
from repro.workloads.corpus import zipf_weights

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.metrics import QueryResult
    from repro.core.system import SquidSystem

__all__ = [
    "TraceOp",
    "Trace",
    "synthetic_trace",
    "replay",
]


@dataclass(frozen=True)
class TraceOp:
    """One trace operation: a query, a publish, or an unpublish."""

    kind: str  # "query" | "publish" | "unpublish"
    query: Query | None = None
    key: tuple | None = None
    payload: Any = None

    def __post_init__(self) -> None:
        if self.kind not in ("query", "publish", "unpublish"):
            raise WorkloadError(f"unknown trace op kind {self.kind!r}")
        if self.kind == "query" and self.query is None:
            raise WorkloadError("query ops need a query")
        if self.kind != "query" and self.key is None:
            raise WorkloadError(f"{self.kind} ops need a key")


@dataclass
class Trace:
    """An ordered, replayable operation sequence."""

    ops: list[TraceOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @classmethod
    def from_queries(cls, queries: Iterable[Query]) -> "Trace":
        """A pure-query trace (no updates), in the given order."""
        return cls([TraceOp("query", query=q) for q in queries])

    @property
    def query_count(self) -> int:
        return sum(1 for op in self.ops if op.kind == "query")

    @property
    def update_count(self) -> int:
        return len(self.ops) - self.query_count

    def distinct_queries(self) -> int:
        """Number of distinct query strings among the query ops."""
        return len({str(op.query) for op in self.ops if op.kind == "query"})


# ----------------------------------------------------------------------
# Synthetic trace generation
# ----------------------------------------------------------------------
def synthetic_trace(
    queries: Sequence[Query],
    length: int,
    zipf_exponent: float = 1.0,
    burstiness: float = 0.0,
    publish_mix: float = 0.0,
    publish_keys: Sequence[Sequence[Any]] | None = None,
    rng: RandomLike = None,
) -> Trace:
    """Compose a query pool into a skewed, bursty, update-mixed trace.

    * ``zipf_exponent`` — popularity skew over the pool (rank-frequency
      exponent; 0 = uniform, 1.0 = classic Zipf).  The pool order defines
      the ranks.
    * ``burstiness`` in [0, 1) — probability that the next query repeats
      the previous one (geometric burst lengths, the memoryless analogue of
      session re-queries).
    * ``publish_mix`` in [0, 1) — probability that an operation is a
      publish of a key drawn uniformly from ``publish_keys`` (required when
      the mix is nonzero) instead of a query.  Publish payloads are
      ``"trace-pub-{n}"`` with a per-trace counter, so replays on twin
      systems insert identical elements.
    """
    if length < 0:
        raise WorkloadError(f"length must be >= 0, got {length}")
    if not queries and length:
        raise WorkloadError("synthetic_trace needs a non-empty query pool")
    if not 0.0 <= burstiness < 1.0:
        raise WorkloadError(f"burstiness must be in [0, 1), got {burstiness}")
    if not 0.0 <= publish_mix < 1.0:
        raise WorkloadError(f"publish_mix must be in [0, 1), got {publish_mix}")
    if publish_mix > 0.0 and not publish_keys:
        raise WorkloadError("a nonzero publish_mix needs publish_keys")
    gen = as_generator(rng)
    weights = zipf_weights(len(queries), zipf_exponent)
    ops: list[TraceOp] = []
    published = 0
    last_query: Query | None = None
    for _ in range(length):
        if publish_mix > 0.0 and gen.random() < publish_mix:
            key = tuple(publish_keys[int(gen.integers(0, len(publish_keys)))])
            ops.append(
                TraceOp("publish", key=key, payload=f"trace-pub-{published}")
            )
            published += 1
            continue
        if last_query is not None and gen.random() < burstiness:
            ops.append(TraceOp("query", query=last_query))
            continue
        last_query = queries[int(gen.choice(len(queries), p=weights))]
        ops.append(TraceOp("query", query=last_query))
    return Trace(ops)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay(
    system: "SquidSystem",
    trace: Trace,
    seed: RandomLike = 0,
    engine: Any = None,
) -> "list[QueryResult | None]":
    """Execute a trace in order; returns one entry per op (None for updates).

    Query ops run through :meth:`SquidSystem.query` (and therefore through
    the system's result cache when one is attached); publish/unpublish ops
    mutate the data set and trigger the cache's invalidation hooks.  The
    origin-selection RNG is derived from ``seed`` so two replays of the
    same trace are reproducible.
    """
    gen = as_generator(seed)
    out: "list[QueryResult | None]" = []
    for op in trace:
        if op.kind == "query":
            out.append(system.query(op.query, engine=engine, rng=gen))
        elif op.kind == "publish":
            system.publish(op.key, payload=op.payload)
            out.append(None)
        else:
            system.unpublish(op.key, payload=op.payload)
            out.append(None)
    return out
