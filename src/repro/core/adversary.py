"""Attack resistance — the paper's §5 "resistance to attacks" future work.

Threat model: a fraction of peers are *query-droppers* — they accept
sub-queries and silently discard them (neither searching their store nor
forwarding the remainder).  This is the classic routing-layer attack on
structured overlays: it silently punches holes in the result set, violating
Squid's completeness guarantee.

Mitigations layered on the standard DHT defenses:

* **retry** — the sender times out on an unresponsive peer and re-sends the
  sub-query to that peer's ring successor, which continues the resolution
  (the chain routes *around* the dropper).  This restores the fan-out but
  not the dropper's own data…
* **replication** — …which a :class:`~repro.core.replication.ReplicationManager`
  restores: the successor scans its replica store for the dropped peer's
  share of the cluster.

:class:`AdversarialEngine` expresses the threat as a droppers-only
:class:`~repro.faults.FaultPlane` and both mitigations as a single-attempt
:class:`~repro.faults.RetryPolicy` with failover — the generic resilient
delivery of :class:`~repro.core.engine.OptimizedEngine` does the rest, so
the adversarial path shares one retry/failover implementation with the
probabilistic fault experiments.  ``run_attack_experiment`` measures recall
vs. dropper fraction for each configuration (extension experiment ``extE``).
"""

from __future__ import annotations

from repro.core.engine import EngineRun, OptimizedEngine
from repro.core.metrics import QueryResult
from repro.core.replication import ReplicationManager
from repro.errors import EngineError
from repro.faults import FaultPlane, RetryPolicy
from repro.util.rng import RandomLike, as_generator

__all__ = ["AdversarialEngine", "run_attack_experiment"]


class AdversarialEngine(OptimizedEngine):
    """The optimized engine under a query-dropping adversary.

    ``droppers`` is the set of malicious node identifiers.  With
    ``retry=True`` the sender detects the missing reply and redirects the
    sub-query to the dropper's successor; with a ``replication`` manager
    attached, that successor additionally serves the dropper's data from
    its replica store.

    Aggregation is disabled because the probe/reply handshake is what
    detects droppers — each destination group costs its probe regardless.
    The adversarial retry is a single attempt with failover and no jitter
    (droppers never respond, so retransmitting to them is pointless and the
    schedule stays deterministic).
    """

    name = "adversarial"

    def __init__(
        self,
        droppers: set[int],
        retry: bool = False,
        replication: ReplicationManager | None = None,
        **kwargs,
    ) -> None:
        kwargs.setdefault("aggregate", False)
        policy = (
            RetryPolicy(max_attempts=1, budget=4, failover=True, max_jitter=0.0)
            if retry
            else None
        )
        super().__init__(
            fault_plane=FaultPlane(droppers=droppers),
            retry=policy,
            replication=replication,
            **kwargs,
        )
        self.droppers = self.fault_plane.droppers

    def begin_run(
        self,
        system,
        query,
        origin: int | None = None,
        rng: RandomLike = None,
        limit: int | None = None,
        priority=None,
    ) -> EngineRun:
        """Start a run unless the origin itself is a dropper.

        The short-circuit lives here (not in ``execute``) so the behaviour
        is identical whether the engine runs through ``execute``'s built-in
        synchronous pump or over a :mod:`repro.net.transport` transport.
        """
        origin_id = self._pick_origin(system, origin, rng)
        if origin_id in self.droppers:
            # A malicious origin returns nothing at all: the entire index
            # space goes unresolved.
            run = EngineRun()
            q = run.query = system.space.as_query(query)
            run.origin_id = origin_id
            run.sink.visit(0, origin_id, 0)
            full_space = (0, system.curve.size - 1)
            run.early_result = QueryResult(
                q, [], run.stats, complete=False, unresolved_ranges=(full_space,)
            )
            return run
        return super().begin_run(
            system, query, origin=origin_id, rng=rng, limit=limit,
            priority=priority,
        )


def run_attack_experiment(
    system,
    queries,
    dropper_fraction: float,
    retry: bool,
    replication_degree: int = 0,
    rng: RandomLike = None,
) -> dict[str, float]:
    """Mean recall and cost under an attack configuration.

    Droppers are sampled uniformly; the query origins are always honest
    (an attacked requester trivially gets nothing).  Returns mean recall
    over the query set plus mean messages.
    """
    if not 0 <= dropper_fraction < 1:
        raise EngineError("dropper_fraction must be in [0, 1)")
    gen = as_generator(rng)
    ids = system.overlay.node_ids()
    n_droppers = int(dropper_fraction * len(ids))
    droppers = set(
        int(x) for x in gen.choice(ids, size=n_droppers, replace=False)
    )
    manager = (
        ReplicationManager(system, degree=replication_degree)
        if replication_degree
        else None
    )
    engine = AdversarialEngine(droppers, retry=retry, replication=manager)
    honest = [nid for nid in ids if nid not in droppers]
    recalls = []
    messages = []
    for query in queries:
        want = {id(e) for e in system.brute_force_matches(query)}
        origin = honest[int(gen.integers(0, len(honest)))]
        result = engine.execute(system, query, origin=origin, rng=gen)
        got = {id(e) for e in result.matches}
        recalls.append(len(got & want) / len(want) if want else 1.0)
        messages.append(result.stats.messages)
    return {
        "recall": float(sum(recalls) / len(recalls)),
        "messages": float(sum(messages) / len(messages)),
        "droppers": float(len(droppers)),
    }
