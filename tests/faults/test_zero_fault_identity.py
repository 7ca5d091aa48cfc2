"""Property test: an inert fault plane is bit-identical to no plane at all.

The resilience machinery (fault plane + retry policy + replication manager)
must be free when unused: with every fault rate at zero the engine takes the
unmodified fast path, consumes no extra randomness, and produces the same
matches, the same :class:`QueryStats`, the same trace totals, and the same
metrics snapshot as a plain :class:`OptimizedEngine` — across curve
families, query classes, and both aggregation modes.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KeywordSpace, SquidSystem, WordDimension
from repro.core.engine import OptimizedEngine
from repro.core.plancache import PlanCache
from repro.core.replication import ReplicationManager
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from repro.obs import collecting
from repro.overlay.chord import RouteCache
from tests.core.conftest import WORDS

#: One representative query per class the paper distinguishes: fully
#: specified, partial (prefix + wildcard), and all-wildcard.
QUERY_CLASSES = ["(computer, data)", "(comp*, *)", "(*, *)"]


def _build(curve_name: str, seed: int) -> SquidSystem:
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)
    system = SquidSystem.create(space, n_nodes=16, curve=curve_name, seed=seed)
    rng = np.random.default_rng(seed + 1)
    keys = [
        (WORDS[rng.integers(len(WORDS))], WORDS[rng.integers(len(WORDS))])
        for _ in range(80)
    ]
    system.publish_many(keys)
    return system


def _run(system, engine, seed):
    """Execute every query class from a seeded origin with cold caches."""
    rng = np.random.default_rng(seed + 2)
    ids = system.overlay.node_ids()
    system.attach_tracer()
    out = []
    try:
        with collecting() as registry:
            for i, query in enumerate(QUERY_CLASSES):
                system.plan_cache = PlanCache()
                system.overlay.route_cache = RouteCache()
                origin = ids[(seed + i) % len(ids)]
                res = engine.execute(system, query, origin=origin, rng=rng)
                out.append(
                    (
                        sorted(str(e.key) for e in res.matches),
                        res.stats.as_dict(),
                        res.trace.totals(),
                        res.complete,
                        res.unresolved_ranges,
                    )
                )
    finally:
        system.detach_tracer()
    return out, registry.snapshot()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    curve_name=st.sampled_from(["hilbert", "zorder", "gray"]),
    seed=st.integers(0, 1000),
    aggregate=st.booleans(),
)
def test_inert_plane_is_bit_identical(curve_name, seed, aggregate):
    system = _build(curve_name, seed)
    plain = OptimizedEngine(aggregate=aggregate)
    armed = OptimizedEngine(
        aggregate=aggregate,
        fault_plane=FaultPlane(FaultConfig(seed=seed)),
        retry=RetryPolicy(),
        replication=ReplicationManager(system, degree=2),
    )
    reference = _run(system, plain, seed)
    resilient = _run(system, armed, seed)
    assert resilient == reference
    # And nothing was ever marked incomplete.
    per_query, _metrics = reference
    for _, _, _, complete, unresolved in per_query:
        assert complete and unresolved == ()
