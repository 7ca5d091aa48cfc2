"""The parallel pool's determinism contract: ISSUE acceptance criterion is
byte-identical ``query_many`` outputs (results, merged stats, merged
metrics) for any worker count."""

from __future__ import annotations

import json

import pytest

from repro.config import Config, using
from repro.errors import EngineError
from repro.exec import DEFAULT_CHUNK_SIZE, QueryPool
from repro.obs import collecting
from repro.workloads.queries import q1_queries, q2_queries
from tests.exec.conftest import grown


@pytest.fixture(scope="module")
def built():
    return grown(
        dims=2, n_nodes=20, n_keys=250, vocabulary_size=50, bits=10, seed=11
    )


@pytest.fixture(scope="module")
def queries(built):
    return q1_queries(built.workload, count=40, rng=5) + q2_queries(
        built.workload, count=24, rng=6
    )


def _match_sequences(batch):
    """Exact per-query match sequences (order included — byte-identical)."""
    return [[(e.index, str(e.payload)) for e in r.matches] for r in batch.results]


def test_worker_count_does_not_change_results(built, queries):
    system = built.system
    serial = system.query_many(queries, workers=1, seed=42)
    pooled = system.query_many(queries, workers=4, seed=42)

    assert serial.start_method == "in-process"
    assert pooled.start_method in ("fork", "spawn")
    assert _match_sequences(serial) == _match_sequences(pooled)
    assert [r.stats.as_dict() for r in serial.results] == [
        r.stats.as_dict() for r in pooled.results
    ]
    assert serial.stats.as_dict() == pooled.stats.as_dict()
    assert json.dumps(serial.metrics, sort_keys=True) == json.dumps(
        pooled.metrics, sort_keys=True
    )


def test_results_preserve_input_order(built, queries):
    batch = built.system.query_many(queries, workers=1, seed=1)
    assert len(batch.results) == len(queries)
    for query, result in zip(queries, batch.results):
        assert str(result.query) == str(query)


def test_same_seed_same_results_across_runs(built, queries):
    system = built.system
    a = system.query_many(queries[:8], workers=1, seed=7)
    b = system.query_many(queries[:8], workers=1, seed=7)
    assert _match_sequences(a) == _match_sequences(b)
    assert a.stats.as_dict() == b.stats.as_dict()


def test_merged_stats_reduce_per_query_stats(built, queries):
    batch = built.system.query_many(queries[:8], workers=1, seed=3)
    assert batch.stats.messages == sum(r.stats.messages for r in batch.results)
    assert batch.stats.clusters_processed == sum(
        r.stats.clusters_processed for r in batch.results
    )
    expected_data_nodes = set()
    for r in batch.results:
        expected_data_nodes |= r.stats.data_nodes
    assert batch.stats.data_nodes == expected_data_nodes


def test_batch_folds_metrics_into_active_registry(built, queries):
    system = built.system
    with collecting() as registry:
        batch = system.query_many(queries[:6], workers=1, seed=5)
    snap = registry.snapshot()
    assert snap["counters"] == batch.metrics["counters"]


def test_route_cache_metrics_surface_in_batch(built, queries):
    batch = built.system.query_many(queries, workers=1, seed=9)
    counters = batch.metrics["counters"]
    assert counters.get("overlay.route_cache.hits", 0) > 0
    assert counters.get("overlay.route_cache.misses", 0) > 0


def test_empty_batch(built):
    batch = built.system.query_many([], workers=4, seed=0)
    assert batch.results == []
    assert batch.chunk_count == 0
    assert batch.total_matches() == 0


def test_batch_result_helpers(built, queries):
    batch = built.system.query_many(queries[:5], workers=1, seed=2)
    assert batch.query_count == 5
    assert batch.match_counts() == [r.match_count for r in batch.results]
    assert batch.total_matches() == sum(batch.match_counts())
    assert batch.chunk_size == DEFAULT_CHUNK_SIZE


def test_chunking_is_independent_of_workers(built, queries):
    system = built.system
    small = QueryPool(system, workers=1, chunk_size=8).run(queries, seed=4)
    big = QueryPool(system, workers=1, chunk_size=8).run(queries, seed=4)
    assert small.chunk_count == big.chunk_count == (len(queries) + 7) // 8


def test_invalid_parameters_raise(built):
    with pytest.raises(EngineError):
        QueryPool(built.system, workers=0)
    with pytest.raises(EngineError):
        QueryPool(built.system, chunk_size=0)
    with pytest.raises(EngineError):
        QueryPool(built.system, start_method="not-a-method")


def test_default_workers_global(built):
    with using(Config(workers=3)):
        assert QueryPool(built.system).workers == 3
        assert QueryPool(built.system, workers=2).workers == 2
    assert QueryPool(built.system).workers == 1


def test_pool_leaves_system_state_intact(built, queries):
    system = built.system
    plan_cache = system.plan_cache
    route_cache = system.overlay.route_cache
    tracer = system.attach_tracer()
    try:
        batch = system.query_many(queries[:4], workers=1, seed=8)
    finally:
        system.detach_tracer()
    assert system.plan_cache is plan_cache
    assert system.overlay.route_cache is route_cache
    assert tracer is not None
    # Traces cannot be merged across processes; batch results carry none.
    assert all(r.trace is None for r in batch.results)
