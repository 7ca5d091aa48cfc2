"""Result cache x route cache composition under a churn burst.

Mirror of ``tests/overlay/test_route_cache.py``'s zero-stale guard, one
layer up: a system running with *both* caches is driven through a skewed
query trace with a randomized join/leave/crash burst in the middle, and
after every membership event each pool query must return exactly the
brute-force answer over the surviving stores.  Route-cache staleness
would misroute sub-queries; result-cache staleness would serve matches
from dead or reshuffled segments — either shows up as a mismatch here.
"""

from __future__ import annotations

import random

from repro.core.resultcache import ResultCache
from repro.core.system import SquidSystem
from repro.keywords.dimensions import WordDimension
from repro.keywords.space import KeywordSpace

WORDS = ["computer", "computation", "network", "netbook", "storage", "memory"]

QUERIES = ["(computer, *)", "(comp*, *)", "(*, storage)", "(net*, *)"]


def _assert_queries_exact(system):
    for query in QUERIES:
        res = system.query(query, origin=system.overlay.node_ids()[0])
        got = sorted((e.index, e.key, str(e.payload)) for e in res.matches)
        want = sorted(
            (e.index, e.key, str(e.payload))
            for e in system.brute_force_matches(query)
        )
        assert got == want, f"stale answer for {query}"


def test_zero_stale_results_after_churn_burst():
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=6)
    system = SquidSystem.create(
        space,
        n_nodes=10,
        seed=17,
        result_cache=ResultCache(capacity=16),
    )
    assert system.overlay.route_cache is not None  # both caches in play
    rng = random.Random(9)
    for i in range(60):
        system.publish(
            (WORDS[rng.randrange(6)], WORDS[rng.randrange(6)]), payload=i
        )
    # Warm both caches on the full pool.
    _assert_queries_exact(system)
    assert len(system.result_cache) == len(QUERIES)
    assert system.result_cache.hits == 0

    for step in range(25):
        action = rng.random()
        live = system.overlay.node_ids()
        if action < 0.4 or len(live) < 4:
            candidate = rng.randrange(system.overlay.space)
            if candidate not in live:
                system.add_node(candidate)
        elif action < 0.7:
            system.remove_node(rng.choice(live))
        else:
            system.fail_node(rng.choice(live))
            for node in system.overlay.node_ids():
                system.overlay.stabilize_node(node)
        # Interleave cached queries so entries installed mid-burst are
        # themselves churned over in later steps.
        _assert_queries_exact(system)
        if step % 5 == 0:
            system.publish(
                (WORDS[step % 6], WORDS[(step * 2) % 6]), payload=f"mid-{step}"
            )
    # The trace was skewed enough for the cache to matter at all.
    assert system.result_cache.hits > 0
    assert system.result_cache.invalidations > 0
    _assert_queries_exact(system)
