"""Tests for trace-replay workloads: synthesis and replay."""

import pytest

from repro.core.resultcache import ResultCache
from repro.core.system import SquidSystem
from repro.errors import WorkloadError
from repro.keywords.dimensions import WordDimension
from repro.keywords.space import KeywordSpace
from repro.workloads.trace import Trace, TraceOp, replay, synthetic_trace


@pytest.fixture
def space():
    return KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)


class TestSyntheticTrace:
    def _pool(self, space):
        return [
            space.as_query(text)
            for text in ("(alph*, *)", "(beta, *)", "(gamm*, *)", "(delt*, *)")
        ]

    def test_length_and_kinds(self, space):
        trace = synthetic_trace(self._pool(space), 50, rng=1)
        assert len(trace) == 50
        assert trace.query_count == 50 and trace.update_count == 0

    def test_determinism(self, space):
        pool = self._pool(space)
        a = synthetic_trace(pool, 40, zipf_exponent=1.2, burstiness=0.3, rng=7)
        b = synthetic_trace(pool, 40, zipf_exponent=1.2, burstiness=0.3, rng=7)
        assert [str(op.query) for op in a] == [str(op.query) for op in b]

    def test_skew_concentrates_popularity(self, space):
        pool = self._pool(space)
        skewed = synthetic_trace(pool, 400, zipf_exponent=2.5, rng=3)
        top = str(pool[0])
        share = sum(1 for op in skewed if str(op.query) == top) / 400
        assert share > 0.5
        assert skewed.distinct_queries() <= len(pool)

    def test_publish_mix_inserts_updates(self, space):
        pool = self._pool(space)
        trace = synthetic_trace(
            pool, 200, publish_mix=0.2, publish_keys=[("alpha", "beta")], rng=5
        )
        publishes = [op for op in trace if op.kind == "publish"]
        assert 0 < len(publishes) < 100
        assert trace.update_count == len(publishes)
        assert all(op.key == ("alpha", "beta") for op in publishes)
        # deterministic payload counter: replays insert identical elements
        assert [op.payload for op in publishes] == [
            f"trace-pub-{i}" for i in range(len(publishes))
        ]

    def test_validation(self, space):
        pool = self._pool(space)
        with pytest.raises(WorkloadError):
            synthetic_trace(pool, -1)
        with pytest.raises(WorkloadError):
            synthetic_trace([], 5)
        with pytest.raises(WorkloadError):
            synthetic_trace(pool, 5, burstiness=1.0)
        with pytest.raises(WorkloadError):
            synthetic_trace(pool, 5, publish_mix=0.5)  # no publish_keys
        with pytest.raises(WorkloadError):
            TraceOp("nonsense")
        with pytest.raises(WorkloadError):
            TraceOp("query")
        with pytest.raises(WorkloadError):
            TraceOp("publish")


class TestReplay:
    def test_replay_executes_ops_in_order(self, space):
        system = SquidSystem.create(space, n_nodes=8, seed=3)
        system.publish(("alpha", "beta"), payload="seed")
        trace = Trace(
            [
                TraceOp("query", query=space.as_query("(alpha, beta)")),
                TraceOp("publish", key=("alpha", "beta"), payload="added"),
                TraceOp("query", query=space.as_query("(alpha, beta)")),
                TraceOp("unpublish", key=("alpha", "beta"), payload="added"),
                TraceOp("query", query=space.as_query("(alpha, beta)")),
            ]
        )
        results = replay(system, trace, seed=1)
        assert [r is None for r in results] == [False, True, False, True, False]
        assert len(results[0].matches) == 1
        assert len(results[2].matches) == 2
        assert len(results[4].matches) == 1

    def test_replay_drives_the_result_cache(self, space):
        system = SquidSystem.create(
            space, n_nodes=8, seed=3, result_cache=ResultCache(capacity=8)
        )
        system.publish(("alpha", "beta"), payload="seed")
        q = space.as_query("(alpha, beta)")
        trace = Trace.from_queries([q, q, q])
        results = replay(system, trace, seed=1)
        assert [r.stats.result_cache_hit for r in results] == [False, True, True]
        assert system.result_cache.hit_rate == pytest.approx(2 / 3)
