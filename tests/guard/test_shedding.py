"""Engine-level shedding: honest partials, identity, and composition.

Three invariants from ``docs/overload.md``:

* **Honesty** — a shed branch degrades the answer exactly like a lost
  branch: ``complete=False``, the abandoned windows in
  ``unresolved_ranges``, matches a subset of the exact set, and
  ``stats.shed_branches`` reconciled by the trace.
* **Inertness** — an attached-but-idle guard plane changes nothing:
  match sets, stats, metrics snapshots, and the fault plane's RNG stream
  are byte-identical to an unguarded run.
* **Composition** — shedding stacks with the hop budget and priority
  classes without double counting or dishonest ``complete`` flags.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.core.engine import NaiveEngine, OptimizedEngine
from repro.core.plancache import PlanCache
from repro.core.system import SquidSystem
from repro.errors import GuardError
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from repro.guard import GuardConfig, GuardPlane
from repro.keywords.dimensions import NumericDimension, WordDimension
from repro.keywords.space import KeywordSpace
from repro.obs import collecting

ENGINES = {"optimized": OptimizedEngine, "naive": NaiveEngine}
WORDS = ["computer", "network", "database", "storage", "compute", "grid"]
SHED_QUERY = "(*, 256-1024)"

#: Aggressive guard: watermark trips at backlog 2, bucket never refills.
AGGRESSIVE = dict(queue_high=1, queue_low=0, bucket_capacity=1,
                  bucket_refill=0.0)


def _build_system(seed: int = 11, n_nodes: int = 24, n_docs: int = 150):
    space = KeywordSpace(
        [WordDimension("keyword"), NumericDimension("size", 1, 1024)], bits=8
    )
    system = SquidSystem.create(space, n_nodes=n_nodes, seed=seed)
    rng = random.Random(seed)
    keys = [
        (rng.choice(WORDS), float(rng.choice([128, 256, 300, 512, 1024])))
        for _ in range(n_docs)
    ]
    system.publish_many(keys, payloads=range(n_docs))
    return system


def _shed_result(system, engine_cls, *, priority="batch", trace=False,
                 **engine_kwargs):
    engine = engine_cls(
        guard=GuardPlane(GuardConfig(**AGGRESSIVE)), **engine_kwargs
    )
    system.plan_cache = PlanCache()
    if trace:
        system.attach_tracer()
    try:
        return engine.execute(
            system,
            SHED_QUERY,
            origin=system.overlay.node_ids()[0],
            rng=np.random.default_rng(3),
            priority=priority,
        )
    finally:
        if trace:
            system.detach_tracer()


@pytest.mark.parametrize("engine_cls", ENGINES.values(), ids=ENGINES)
class TestHonestShedding:
    def test_shed_run_reports_honest_partial(self, engine_cls):
        system = _build_system()
        result = _shed_result(system, engine_cls)
        assert result.stats.shed_branches > 0
        assert result.complete is False
        assert result.unresolved_ranges
        assert result.unresolved_span > 0

    def test_shed_matches_are_subset_of_exact(self, engine_cls):
        system = _build_system()
        exact = {e.payload for e in system.brute_force_matches(SHED_QUERY)}
        result = _shed_result(system, engine_cls)
        got = {e.payload for e in result.matches}
        assert got <= exact
        assert len(got) < len(exact)  # something really was shed

    def test_trace_reconciles_shed_branches(self, engine_cls):
        system = _build_system()
        result = _shed_result(system, engine_cls, trace=True)
        assert result.trace is not None
        totals = result.trace.totals()
        assert totals["shed_branches"] == result.stats.shed_branches > 0
        assert totals["messages"] == result.stats.messages
        # Shed spans are deliberate, not crashes or in-flight aborts.
        assert totals["lost_branches"] == 0
        assert totals["aborted_in_flight"] == result.stats.aborted_in_flight

    def test_shed_emits_metrics(self, engine_cls):
        system = _build_system()
        with collecting() as registry:
            result = _shed_result(system, engine_cls)
        counters = registry.snapshot()["counters"]
        assert counters["guard.sheds.total"] > 0
        assert (
            counters["query.shed_branches.total"] == result.stats.shed_branches
        )

    def test_interactive_priority_is_never_watermark_shed(self, engine_cls):
        """Rank 0 bypasses watermark and bucket: the answer stays exact."""
        system = _build_system()
        exact = {e.payload for e in system.brute_force_matches(SHED_QUERY)}
        result = _shed_result(system, engine_cls, priority="interactive")
        assert {e.payload for e in result.matches} == exact
        assert result.complete is True
        assert result.stats.shed_branches == 0


def _run_batch(system, engine, seed=5):
    """Cold-cache batch of queries; returns comparable payload tuples."""
    from repro.overlay.chord import RouteCache

    rng = np.random.default_rng(seed)
    ids = system.overlay.node_ids()
    out = []
    queries = ["(comp*, *)", "(*, 256-512)", "(network, *)", "(*, *)"]
    with collecting() as registry:
        for i, query in enumerate(queries):
            system.plan_cache = PlanCache()
            system.overlay.route_cache = RouteCache()
            res = engine.execute(
                system, query, origin=ids[i % len(ids)], rng=rng,
                priority="batch",
            )
            out.append(
                (
                    sorted(e.payload for e in res.matches),
                    res.stats.as_dict(),
                    res.complete,
                )
            )
    return out, json.dumps(registry.snapshot(), sort_keys=True, default=sorted)


@pytest.mark.parametrize("engine_cls", ENGINES.values(), ids=ENGINES)
class TestZeroOverloadIdentity:
    def test_idle_guard_is_bit_identical(self, engine_cls):
        """Huge thresholds never trip: everything matches unguarded runs."""
        system = _build_system()
        idle = GuardPlane(
            GuardConfig(queue_high=10**6, queue_limit=10**6,
                        bucket_capacity=10**6)
        )
        ref_out, ref_metrics = _run_batch(system, engine_cls())
        idle_out, idle_metrics = _run_batch(system, engine_cls(guard=idle))
        assert idle_out == ref_out
        assert idle_metrics == ref_metrics
        assert idle.stats.shed == 0
        assert idle.stats.admitted > 0  # the plane really was consulted

    def test_inactive_plane_is_detached(self, engine_cls):
        """A default-config plane is bypassed entirely (run.guard is None)."""
        system = _build_system()
        plane = GuardPlane()
        engine = engine_cls(guard=plane)
        engine.execute(
            system, "(comp*, *)", origin=system.overlay.node_ids()[0],
            rng=np.random.default_rng(1),
        )
        assert plane.stats.admitted == 0  # never consulted


class TestPriorityThreading:
    """The ``priority`` kwarg reaches the engine through every entry point."""

    def test_system_query_threads_priority_to_a_guarded_engine(self):
        system = _build_system()
        engine = OptimizedEngine(guard=GuardPlane(GuardConfig(**AGGRESSIVE)))
        shed = system.query(
            SHED_QUERY, engine=engine, origin=system.overlay.node_ids()[0],
            rng=0, priority="batch",
        )
        assert shed.stats.shed_branches > 0
        system.plan_cache = PlanCache()
        exact = system.query(
            SHED_QUERY, engine=engine, origin=system.overlay.node_ids()[0],
            rng=0, priority="interactive",
        )
        assert exact.complete is True

    def test_invalid_priority_raises(self):
        system = _build_system()
        with pytest.raises(GuardError):
            system.query(SHED_QUERY, rng=0, priority="urgent")


def test_idle_guard_preserves_fault_rng_stream():
    """The guard consumes no RNG: fault decisions are unchanged.

    Only :class:`OptimizedEngine` carries a fault plane, so the twin runs
    use it directly.
    """
    system = _build_system()

    def faulty(guard):
        return OptimizedEngine(
            fault_plane=FaultPlane(FaultConfig(drop_rate=0.3, seed=17)),
            retry=RetryPolicy(),
            guard=guard,
        )

    ref_out, _ = _run_batch(system, faulty(None))
    idle_out, _ = _run_batch(
        system,
        faulty(GuardPlane(GuardConfig(queue_high=10**6))),
    )
    assert idle_out == ref_out


class TestHopBudgetComposition:
    """Satellite: hop budgets and shedding stack without lying.

    Both degradation mechanisms are armed together; depending on the
    budget, one or the other bites first (shedding starves the hop count
    and an exhausted budget stops the fan-out before backlog builds), but
    whichever fires must land in *its own* counter, and the combined run
    must still be an honest partial with reconciling trace totals.
    """

    @pytest.mark.parametrize("engine_cls", ENGINES.values(), ids=ENGINES)
    @pytest.mark.parametrize(
        "hop_budget,guard_kwargs,channel",
        [
            # Armed-but-generous guard: every entry passes admit(), then
            # the tiny budget exhausts -> the *lost* channel.
            (3, dict(queue_high=64, bucket_capacity=10**6), "lost_branches"),
            # Generous (default) budget, aggressive guard -> *shed*.
            (None, AGGRESSIVE, "shed_branches"),
        ],
        ids=["budget-bites", "guard-bites"],
    )
    def test_budget_and_shed_compose_honestly(
        self, engine_cls, hop_budget, guard_kwargs, channel
    ):
        system = _build_system()
        kwargs = {} if hop_budget is None else {"hop_budget": hop_budget}
        engine = engine_cls(
            guard=GuardPlane(GuardConfig(**guard_kwargs)), **kwargs
        )
        system.plan_cache = PlanCache()
        system.attach_tracer()
        try:
            result = engine.execute(
                system, "(*, *)", origin=system.overlay.node_ids()[0],
                rng=np.random.default_rng(9), priority="background",
            )
        finally:
            system.detach_tracer()
        exact = {e.payload for e in system.brute_force_matches("(*, *)")}
        assert {e.payload for e in result.matches} <= exact
        assert result.complete is False
        assert result.unresolved_ranges
        stats = result.stats
        # The expected channel fired; neither leaked into the other's
        # counter beyond what actually happened.
        assert getattr(stats, channel) > 0
        totals = result.trace.totals()
        assert totals["shed_branches"] == stats.shed_branches
        assert totals["lost_branches"] == stats.lost_branches
        assert totals["messages"] == stats.messages
        assert totals["hops"] == stats.hops

    def test_unresolved_ranges_cover_the_shed_windows(self):
        """Re-querying only the unresolved windows recovers the gap."""
        system = _build_system()
        result = _shed_result(system, OptimizedEngine)
        exact = {e.payload for e in system.brute_force_matches(SHED_QUERY)}
        got = {e.payload for e in result.matches}
        missing = exact - got
        assert missing
        covered = set()
        for lo, hi in result.unresolved_ranges:
            covered.update(range(lo, hi + 1))
        for entry in system.brute_force_matches(SHED_QUERY):
            if entry.payload in missing:
                index = int(system.curve.encode(
                    system.space.coordinates(entry.key)
                ))
                assert index in covered
