"""Regression guard on the data-node post-filter: the query is bound once.

``begin_run`` binds the query to the space once (``space.bind`` +
``space.matcher``); the per-element filter is then a plain predicate on
already-normalized keys.  These tests count ``space.as_query`` and
``Dimension.validate`` calls during ``system.query`` and pin them to the
number of query *terms* — the same on a corpus four times the size — while
the candidates still arrive through ``store.scan_ranges`` looked up on the
store instance (the hook ``perf/`` counts scanned elements through).
"""

import numpy as np
import pytest

from repro import KeywordSpace, NumericDimension, SquidSystem
from repro.core.adversary import AdversarialEngine
from repro.core.replication import ReplicationManager
from tests.core.conftest import fresh_storage_system

Q1 = "(comp*, *)"
Q2 = "(comp*, net*)"
RANGE = "(256-768, *, 10-60)"

#: Generous O(terms) ceilings: bind (check + region) and matcher each touch
#: every term a small constant number of times.
AS_QUERY_CEILING = 4
VALIDATES_PER_TERM = 8


def grid_system(n_keys, seed=0):
    space = KeywordSpace(
        [
            NumericDimension("memory", 0, 1024),
            NumericDimension("bandwidth", 0, 1000),
            NumericDimension("cost", 0, 100),
        ],
        bits=8,
    )
    system = SquidSystem.create(space, n_nodes=32, seed=seed)
    rng = np.random.default_rng(seed + 1)
    values = rng.uniform(size=(n_keys, 3)) * np.array([1024, 1000, 100])
    system.publish_many([tuple(v) for v in values])
    return system


class Counts:
    """Instance-level call counters, installed the way ``perf/`` hooks them."""

    def __init__(self, system, monkeypatch, extra_stores=()):
        self.as_query = self.validate = self.scanned = 0
        space = system.space
        inner_as_query = space.as_query

        def as_query(query):
            self.as_query += 1
            return inner_as_query(query)

        monkeypatch.setattr(space, "as_query", as_query, raising=False)
        for dim in space.dimensions:
            monkeypatch.setattr(
                dim, "validate", self._counting_validate(dim.validate), raising=False
            )
        for store in (*system.stores.values(), *extra_stores):
            monkeypatch.setattr(
                store, "scan_ranges", self._counting_scan(store.scan_ranges),
                raising=False,
            )

    def _counting_validate(self, inner):
        def validate(value):
            self.validate += 1
            return inner(value)

        return validate

    def _counting_scan(self, inner):
        def scan_ranges(ranges):
            found = list(inner(ranges))
            self.scanned += len(found)
            return found

        return scan_ranges


def counted_query(system, query, engine, monkeypatch, extra_stores=()):
    """Run one query under counters; the oracle runs outside them."""
    origin = system.overlay.node_ids()[0]
    with monkeypatch.context() as patch:
        counts = Counts(system, patch, extra_stores)
        result = system.query(query, engine=engine, origin=origin)
    return result, counts


@pytest.mark.parametrize("engine", ["optimized", "naive"])
@pytest.mark.parametrize(
    "query, build",
    [
        (Q1, lambda n: fresh_storage_system(n_nodes=32, n_keys=n, seed=3)),
        (Q2, lambda n: fresh_storage_system(n_nodes=32, n_keys=n, seed=3)),
        (RANGE, grid_system),
    ],
)
def test_binding_cost_is_independent_of_elements_scanned(
    engine, query, build, monkeypatch
):
    per_corpus = []
    for n_keys in (300, 1200):
        system = build(n_keys)
        result, counts = counted_query(system, query, engine, monkeypatch)
        want = system.brute_force_matches(query)
        assert want, "the query must return matches"
        assert sorted(map(id, result.matches)) == sorted(map(id, want))
        assert counts.scanned >= len(want)
        terms = system.space.dims
        assert counts.as_query <= AS_QUERY_CEILING
        assert counts.validate <= VALIDATES_PER_TERM * terms
        per_corpus.append(counts)
    small, large = per_corpus
    assert large.scanned > 2 * small.scanned
    assert (large.as_query, large.validate) == (small.as_query, small.validate)


def test_replica_failover_scan_uses_the_bound_matcher(monkeypatch):
    system = fresh_storage_system(n_nodes=32, n_keys=600, seed=5)
    want = system.brute_force_matches(Q1)
    holders = {system.overlay.owner(element.index) for element in want}
    origin = system.overlay.node_ids()[0]
    dropper = next(n for n in sorted(holders) if n != origin)
    manager = ReplicationManager(system, degree=2)
    engine = AdversarialEngine({dropper}, retry=True, replication=manager)

    result, counts = counted_query(
        system, Q1, engine, monkeypatch, extra_stores=manager.replicas.values()
    )

    assert result.stats.failovers > 0, "the dropper's share must be failed over"
    assert result.complete
    # Replica stores may hold copies (the SQLite backend pickles), so the
    # failover answer is compared by value, not identity.
    def by_value(elements):
        return sorted((e.index, e.key, e.payload) for e in elements)

    assert by_value(result.matches) == by_value(want)
    assert counts.scanned >= len(want)
    assert counts.as_query <= AS_QUERY_CEILING
    assert counts.validate <= VALIDATES_PER_TERM * system.space.dims
