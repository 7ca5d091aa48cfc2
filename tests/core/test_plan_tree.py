"""The plan cache's query tree: replaying a remainder changes nothing but CPU.

A cached optimized-engine plan keeps, besides the level-1 clusters, every
node's remainder step of the runs planned from it (``refine_cluster``'s
``tree``, keyed on ``(cluster, min_index)``).  The property test runs the
same queries on a system with the plan cache and on a twin without one,
three passes over a ring that joins, leaves and crashes between them, and
holds the two to the same answers, stats, trace trees and counted cells —
while the cached side really replays.  The unit tests pin the fill policy
(a run fills the tree only when its plan came from the cache) and the cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KeywordSpace, SquidSystem, WordDimension
from repro.core.engine import OptimizedEngine
from repro.obs import collecting, profiling
from repro.sfc import CURVES, make_curve
from repro.sfc import clusters as sfc_clusters
from repro.sfc.clusters import clusters_at_level, refine_cluster
from repro.sfc.regions import Region
from tests.core.conftest import WORDS
from tests.core.test_engine_golden import _digest

#: Broad queries every example runs: their runs continue at many nodes, so
#: the cached side always has remainders to replay.
BROAD = ("(comp*, *)", "(*, d*)")

_term = st.one_of(
    st.just("*"),
    st.sampled_from(WORDS),
    st.builds(
        lambda word, n: word[:n] + "*", st.sampled_from(WORDS), st.integers(1, 3)
    ),
)
_query = st.builds(lambda a, b: f"({a}, {b})", _term, _term)


def _build(curve: str) -> SquidSystem:
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)
    system = SquidSystem.create(space, n_nodes=24, curve=curve, seed=5)
    rng = np.random.default_rng(6)
    keys = [
        (WORDS[rng.integers(len(WORDS))], WORDS[rng.integers(len(WORDS))])
        for _ in range(150)
    ]
    system.publish_many(keys, payloads=list(range(len(keys))))
    system.attach_tracer()
    return system


def _pass(system: SquidSystem, engine, queries) -> tuple[list, int, int, list]:
    """One pass over ``queries``: per-query rows, cells counted, tree hits
    and which queries were planned from the cache."""
    ids = system.overlay.node_ids()
    rows, planned = [], []
    with collecting() as registry:
        for i, query in enumerate(queries):
            result = engine.execute(
                system, query, origin=ids[(i * 7 + 1) % len(ids)], rng=i
            )
            stats = result.stats.as_dict()
            planned.append(stats.pop("plan_cache_hit"))
            rows.append(
                (
                    [(str(e.key), e.payload) for e in result.matches],
                    stats,
                    _digest(result.trace.to_tree()),
                    result.complete,
                    list(result.unresolved_ranges),
                )
            )
    counters = registry.snapshot()["counters"]
    return (
        rows,
        counters.get("sfc.refine.scalar_cells", 0),
        counters.get("plan_cache.tree_hits", 0),
        planned,
    )


def _plan_cells(system: SquidSystem, engine, query) -> int:
    """Cells the initiator's own plan counts: a plan hit skips that step
    (the level-1 cache predates the tree), while no node step is skipped."""
    with collecting() as registry:
        engine._plan(system.curve, system.space.bind(query).region)
    return registry.snapshot()["counters"].get("sfc.refine.scalar_cells", 0)


def _free_id(system: SquidSystem, at: int) -> int:
    """An identifier between two neighbours of the ring."""
    ids = system.overlay.node_ids()
    k = at % (len(ids) - 1)
    return (ids[k] + ids[k + 1]) // 2


def _change(system: SquidSystem, step: int, picks: tuple[int, int, int]) -> None:
    """Between passes: a join, then a graceful leave and a repaired crash."""
    join_at, leave_at, fail_at = picks
    if step == 0:
        system.add_node(_free_id(system, join_at))
        return
    ids = system.overlay.node_ids()
    system.remove_node(ids[leave_at % len(ids)])
    ids = system.overlay.node_ids()
    system.fail_node(ids[fail_at % len(ids)])
    for k, node in enumerate(system.overlay.node_ids()):
        system.overlay.stabilize_node(node, rng=k)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    curve=st.sampled_from(sorted(CURVES)),
    local_depth=st.sampled_from([1, 2]),
    aggregate=st.booleans(),
    extra=st.lists(_query, max_size=3),
    picks=st.tuples(st.integers(0, 99), st.integers(0, 99), st.integers(0, 99)),
)
def test_replayed_runs_equal_computed_runs(curve, local_depth, aggregate, extra, picks):
    queries = list(BROAD) + extra
    engine = OptimizedEngine(aggregate=aggregate, local_depth=local_depth)
    cached, twin = _build(curve), _build(curve)
    twin.plan_cache = None
    replayed = 0
    for step in range(3):
        got, got_cells, tree_hits, planned = _pass(cached, engine, queries)
        want, want_cells, twin_hits, _ = _pass(twin, engine, queries)
        assert got == want, f"pass {step}"
        skipped = sum(
            _plan_cells(twin, engine, query)
            for query, hit in zip(queries, planned)
            if hit
        )
        assert got_cells + skipped == want_cells, f"pass {step}"
        assert twin_hits == 0
        replayed += tree_hits
        if step < 2:
            _change(cached, step, picks)
            _change(twin, step, picks)
    assert replayed > 0


# ----------------------------------------------------------------------
# Fill policy and cap
# ----------------------------------------------------------------------
def _entry(system: SquidSystem):
    (value,) = system.plan_cache._entries.values()
    return value


@pytest.mark.parametrize("curve", sorted(CURVES))
def test_a_miss_files_an_empty_tree_and_a_hit_fills_it(curve):
    system = _build(curve)
    origin = system.overlay.node_ids()[0]
    cold = system.query("(comp*, *)", origin=origin)
    plan, tree = _entry(system)
    assert not cold.stats.plan_cache_hit and tree == {}
    with collecting() as registry:
        warm = system.query("(comp*, *)", origin=origin)
    assert warm.stats.plan_cache_hit and tree
    assert _entry(system) == (plan, tree)
    assert "plan_cache.tree_hits" not in registry.snapshot()["counters"]
    with collecting() as registry:
        again = system.query("(comp*, *)", origin=origin)
    hits = registry.snapshot()["counters"]["plan_cache.tree_hits"]
    assert hits == len(tree)
    assert again.stats.as_dict() == warm.stats.as_dict()


def test_the_naive_engine_files_no_tree():
    system = _build("hilbert")
    system.query("(comp*, *)", engine="naive")
    assert _entry(system)[1] is None


@pytest.mark.parametrize("curve", sorted(CURVES))
@pytest.mark.parametrize("bounds", [((3, 40), (0, 63)), ((10, 50), (17, 29))])
def test_refine_cluster_replays_what_it_computes(curve, bounds):
    """With a tree: the same clusters, the same cells counted, one tree hit
    per replayed step, and no ``sfc.refine`` time for a replay."""
    curve = make_curve(curve, 2, 6)
    region = Region.from_bounds(bounds)
    steps = [
        (cluster, min_index)
        for level in (1, 2)
        for cluster in clusters_at_level(curve, region, level)
        if not cluster.is_resolved
        for min_index in (0, cluster.min_index(curve) + 5)
    ]
    assert steps
    tree: dict = {}
    for cluster, min_index in steps:
        with collecting() as plain:
            want = refine_cluster(curve, cluster, region, min_index)
        for replay in (False, True):  # computed and filed, then replayed
            with collecting() as memo, profiling() as prof:
                got = refine_cluster(curve, cluster, region, min_index, tree)
            assert got == tuple(want)
            counters = memo.snapshot()["counters"]
            assert (
                counters["sfc.refine.scalar_cells"]
                == plain.snapshot()["counters"]["sfc.refine.scalar_cells"]
            )
            assert counters.get("plan_cache.tree_hits", 0) == replay
            assert ("sfc.refine" in prof.snapshot()) is not replay


def test_churn_never_grows_a_tree_past_its_cap(monkeypatch):
    """Joins and leaves move the ``covered + 1`` keys: a full tree clears."""
    cap = 8
    monkeypatch.setattr(sfc_clusters, "TREE_CAPACITY", cap)
    system = _build("hilbert")
    origin = system.overlay.node_ids()[0]
    sizes: dict = {}
    cleared = False
    for step in range(12):
        for query in BROAD:
            system.query(query, origin=origin)
            for key, (_, tree) in system.plan_cache._entries.items():
                assert len(tree) <= cap
                cleared |= len(tree) < sizes.get(key, 0)
                sizes[key] = len(tree)
        joined = _free_id(system, 3 * step + 1)
        system.add_node(joined)
        if step % 2:
            system.remove_node(joined)
    assert cleared  # the moved keys did fill a tree, and it started over
