"""Property test: result caching never changes what a query returns.

The ISSUE's correctness bar: two identically-built systems, one with a
result cache and one without, are driven through the *same* interleaved
sequence of publishes, removals, membership churn (joins, graceful leaves,
crashes, identifier moves), and queries — and every query must return the
identical match set on both.  After every step the cached twin is also
asked the whole pool, and whatever it serves from cache must be the
brute-force answer.  Graceful membership steps (joins, leaves, identifier
moves) hand elements over one for one, so they must keep every cached
entry; crashes still drop by segment.  Runs across every registered curve
family and both engines, with a deliberately tiny cache so eviction,
promotion, crash invalidation and segment math are all exercised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resultcache import ResultCache
from repro.core.system import SquidSystem
from repro.keywords.dimensions import WordDimension
from repro.keywords.space import KeywordSpace
from repro.sfc import CURVES

WORDS = ["computer", "computation", "network", "netbook", "storage", "memory"]

QUERIES = [
    "(computer, *)",
    "(comp*, *)",
    "(*, storage)",
    "(net*, mem*)",
    "(*, *)",
    "(storage, network)",
]

_op = st.one_of(
    st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
    st.tuples(
        st.just("publish"),
        st.integers(0, len(WORDS) - 1),
        st.integers(0, len(WORDS) - 1),
    ),
    st.tuples(
        st.just("unpublish"),
        st.integers(0, len(WORDS) - 1),
        st.integers(0, len(WORDS) - 1),
    ),
    st.tuples(st.just("join"), st.integers(0, 255)),
    st.tuples(st.just("leave"), st.integers(0, 7)),
    st.tuples(st.just("crash"), st.integers(0, 7)),
    st.tuples(st.just("move"), st.integers(0, 7), st.booleans()),
)


def _build(space, curve, engine, seed, cached):
    cache = ResultCache(capacity=4) if cached else False
    system = SquidSystem.create(
        space,
        n_nodes=6,
        curve=curve,
        seed=seed,
        engine=engine,
        result_cache=cache,
    )
    for i, word in enumerate(WORDS):
        system.publish((word, WORDS[(i * 3 + 1) % len(WORDS)]), payload=f"seed-{i}")
    return system


def _rows(elements):
    return sorted((e.index, e.key, str(e.payload)) for e in elements)


def _apply(system, op, publishes):
    kind = op[0]
    if kind == "query":
        res = system.query(QUERIES[op[1]], origin=system.overlay.node_ids()[0])
        return _rows(res.matches)
    if kind == "publish":
        system.publish((WORDS[op[1]], WORDS[op[2]]), payload=f"pub-{publishes}")
    elif kind == "unpublish":
        system.unpublish((WORDS[op[1]], WORDS[op[2]]))
    elif kind == "join":
        if op[1] not in system.overlay.node_ids():
            system.add_node(op[1])
    elif kind == "leave":
        ids = system.overlay.node_ids()
        if len(ids) > 2:
            system.remove_node(ids[op[1] % len(ids)])
    elif kind == "move":
        # Shift the boundary between two linear neighbours to its midpoint:
        # the upper one shrinks to it, or the lower one grows to it.
        ids = system.overlay.node_ids()
        at = op[1] % (len(ids) - 1)
        low, high = ids[at], ids[at + 1]
        target = (low + high) // 2
        if target != low:
            system.change_node_id(high if op[2] else low, target)
    else:  # crash
        ids = system.overlay.node_ids()
        if len(ids) > 2:
            system.fail_node(ids[op[1] % len(ids)])
            # Crashes leave stale routing state; querying an unstabilized
            # ring can cycle (pre-existing overlay behaviour, same repair
            # as tests/overlay/test_route_cache.py and the churn sim).
            for node in system.overlay.node_ids():
                system.overlay.stabilize_node(node)
    return None


def _filed(system):
    return {entry.key for entry in system.result_cache._live()}


def _assert_hits_are_exact(system, op):
    origin = system.overlay.node_ids()[0]
    for query in QUERIES:
        res = system.query(query, origin=origin)
        if res.stats.result_cache_hit:
            assert _rows(res.matches) == _rows(system.brute_force_matches(query)), (
                f"stale hit for {query} after {op}"
            )


@pytest.mark.parametrize("curve", sorted(CURVES))
@pytest.mark.parametrize("engine", ["optimized", "naive"])
@given(ops=st.lists(_op, min_size=1, max_size=14))
@settings(max_examples=15, deadline=None)
def test_cached_equals_uncached_under_interleaved_mutation(curve, engine, ops):
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=4)
    cached = _build(space, curve, engine, seed=7, cached=True)
    plain = _build(space, curve, engine, seed=7, cached=False)
    assert cached.overlay.node_ids() == plain.overlay.node_ids()
    publishes = 0
    for op in ops:
        filed = _filed(cached)
        got = _apply(cached, op, publishes)
        want = _apply(plain, op, publishes)
        if op[0] in ("join", "leave", "move"):
            assert _filed(cached) == filed, f"graceful {op} dropped an entry"
        if op[0] == "publish":
            publishes += 1
        if op[0] == "query":
            assert got == want, f"stale cached answer after {op}"
        _assert_hits_are_exact(cached, op)
    # Final sweep: every pool query agrees, cached and brute-force.
    for query in QUERIES:
        final = _apply(cached, ("query", QUERIES.index(query)), publishes)
        assert final == _apply(plain, ("query", QUERIES.index(query)), publishes)
        assert final == _rows(cached.brute_force_matches(query))
