"""Tests for the query engines: exactness guarantee, costs, optimizations.

The paper's headline guarantee — *all* existing data elements matching a
query are found — is verified against a brute-force oracle for every engine,
query type, and origin choice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    KeywordSpace,
    NaiveEngine,
    OptimizedEngine,
    SquidSystem,
    WordDimension,
    make_engine,
)
from repro.errors import EngineError
from repro.workloads.documents import DocumentWorkload
from repro.workloads.queries import q1_queries
from tests.core.conftest import WORDS, fresh_storage_system

QUERIES_2D = [
    "(computer, *)",
    "(comp*, *)",
    "(comp*, net*)",
    "(computer, network)",
    "(*, *)",
    "(*, stor*)",
    "(zzz*, *)",  # no matches
    "(c*, s*)",
]

QUERIES_3D = [
    "(256-512, *, 10-*)",
    "(*, 100-200, *)",
    "(0-128, 0-250, 0-25)",
    "(900-1024, 900-1000, 90-100)",
    "(512, *, *)",
]


def assert_exact(system, query, engine, origin=None):
    result = system.query(query, engine=engine, origin=origin, rng=99)
    got = sorted(map(id, result.matches))
    want = sorted(map(id, system.brute_force_matches(query)))
    assert got == want, f"{engine.name} missed/duplicated matches for {query}"
    return result


class TestGuarantee:
    """Every engine returns exactly the brute-force match set."""

    @pytest.mark.parametrize("query", QUERIES_2D)
    def test_optimized_2d(self, storage_system, query):
        assert_exact(storage_system, query, OptimizedEngine())

    @pytest.mark.parametrize("query", QUERIES_2D)
    def test_naive_2d(self, storage_system, query):
        assert_exact(storage_system, query, NaiveEngine())

    @pytest.mark.parametrize("query", QUERIES_2D)
    def test_unaggregated_2d(self, storage_system, query):
        assert_exact(storage_system, query, OptimizedEngine(aggregate=False))

    @pytest.mark.parametrize("query", QUERIES_3D)
    def test_optimized_3d_ranges(self, grid_system, query):
        assert_exact(grid_system, query, OptimizedEngine())

    @pytest.mark.parametrize("query", QUERIES_3D)
    def test_naive_3d_ranges(self, grid_system, query):
        assert_exact(grid_system, query, NaiveEngine())

    def test_every_origin(self, storage_system):
        for origin in storage_system.overlay.node_ids()[::7]:
            assert_exact(storage_system, "(comp*, *)", OptimizedEngine(), origin=origin)

    @given(st.integers(0, len(WORDS) - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_random_prefix_queries(self, storage_system, word_idx, plen):
        prefix = WORDS[word_idx][:plen]
        assert_exact(storage_system, f"({prefix}*, *)", OptimizedEngine())

    def test_morton_curve_system_also_exact(self):
        space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=8)
        system = SquidSystem.create(space, n_nodes=24, curve="zorder", seed=3)
        rng = np.random.default_rng(0)
        for _ in range(150):
            system.publish(
                (WORDS[rng.integers(len(WORDS))], WORDS[rng.integers(len(WORDS))])
            )
        for q in ["(comp*, *)", "(*, *)", "(net, data)"]:
            assert_exact(system, q, OptimizedEngine())


class TestStats:
    def test_processing_subset_of_routing(self, storage_system):
        res = storage_system.query("(comp*, *)", rng=1)
        assert res.stats.processing_nodes <= res.stats.routing_nodes

    def test_data_subset_of_processing(self, storage_system):
        res = storage_system.query("(comp*, *)", rng=1)
        assert res.stats.data_nodes <= res.stats.processing_nodes

    def test_empty_query_touches_no_data_nodes(self, storage_system):
        res = storage_system.query("(zzz*, *)", rng=1)
        assert res.stats.data_node_count == 0
        assert res.match_count == 0

    def test_exact_query_is_cheap(self, hilbert_storage_system):
        """A fully specified query is a point lookup: few processing nodes.

        The bound is a property of the Hilbert curve (an exact term's small
        interval stays contiguous), so the fixture pins the curve rather
        than following the process default."""
        res = hilbert_storage_system.query("(computer, network)", rng=1)
        assert res.stats.processing_node_count <= 4

    def test_wildcard_all_visits_every_node(self, storage_system):
        res = storage_system.query("(*, *)", rng=1)
        n = len(storage_system.overlay)
        assert res.stats.processing_node_count == n

    def test_stats_row_keys(self, storage_system):
        row = storage_system.query("(comp*, *)", rng=1).stats.as_row()
        assert set(row) == {
            "routing_nodes",
            "processing_nodes",
            "data_nodes",
            "messages",
            "hops",
        }

    def test_hops_at_least_messages_minus_replies(self, storage_system):
        stats = storage_system.query("(comp*, *)", rng=1).stats
        assert stats.hops >= 0
        assert stats.messages >= 1

    def test_more_specific_query_costs_less(self, storage_system):
        """The paper's Q2-beats-Q1 observation: pruning works better when
        more keywords are specified."""
        q1 = storage_system.query("(comp*, *)", rng=1).stats
        q2 = storage_system.query("(comp*, net*)", rng=1).stats
        assert q2.processing_node_count <= q1.processing_node_count
        assert q2.messages <= q1.messages


class TestOptimizations:
    def test_aggregation_wins_when_subqueries_are_fine(self):
        """The paper's batching pays off once nodes expand the query tree
        deeply: many sibling sub-clusters then share a destination.  With
        shallow refinement sub-queries are coarse and batching has nothing
        to batch — both regimes are asserted."""
        system = fresh_storage_system(n_nodes=32, n_keys=600, seed=21, bits=12)
        deep_agg = deep_noagg = 0
        for q in ["(*, computer)", "(*, net*)", "(*, s*)"]:
            deep_agg += system.query(
                q, engine=OptimizedEngine(aggregate=True, local_depth=5), rng=2
            ).stats.hops
            deep_noagg += system.query(
                q, engine=OptimizedEngine(aggregate=False, local_depth=5), rng=2
            ).stats.hops
        assert deep_agg < deep_noagg

    def test_local_depth_validation(self):
        with pytest.raises(EngineError):
            OptimizedEngine(local_depth=0)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_local_depth_preserves_exactness(self, storage_system, depth):
        for q in ["(comp*, *)", "(*, net*)", "(*, *)"]:
            assert_exact(storage_system, q, OptimizedEngine(local_depth=depth))

    def test_deeper_local_refinement_trades_messages_for_pruning(self):
        """The ``local_depth`` knob: finer sub-queries prune better (fewer
        processing nodes) and, unaggregated, cost more messages."""
        workload = DocumentWorkload.generate(2, 5000, vocabulary_size=1500, bits=16, rng=7)
        system = SquidSystem.create(workload.space, n_nodes=300, seed=8)
        system.publish_many(workload.keys)
        queries = q1_queries(workload, count=6, rng=9)

        def mean_cost(depth):
            engine = OptimizedEngine(aggregate=False, local_depth=depth)
            stats = [system.query(q, engine=engine, rng=11).stats for q in queries]
            return (
                np.mean([s.processing_node_count for s in stats]),
                np.mean([s.messages for s in stats]),
            )

        (shallow_nodes, shallow_msgs), (deep_nodes, deep_msgs) = mean_cost(1), mean_cost(6)
        assert deep_nodes < shallow_nodes
        assert deep_msgs > shallow_msgs

    def test_aggregation_does_not_change_work_distribution(self, storage_system):
        with_agg = storage_system.query(
            "(comp*, *)", engine=OptimizedEngine(aggregate=True), rng=2
        ).stats
        without = storage_system.query(
            "(comp*, *)", engine=OptimizedEngine(aggregate=False), rng=2
        ).stats
        assert with_agg.processing_nodes == without.processing_nodes
        assert with_agg.data_nodes == without.data_nodes

    def test_optimized_beats_naive_on_processing(self, storage_system):
        """Distributed refinement prunes; the naive engine walks clusters."""
        opt = storage_system.query("(comp*, *)", engine=OptimizedEngine(), rng=2).stats
        naive = storage_system.query("(comp*, *)", engine=NaiveEngine(), rng=2).stats
        assert opt.messages <= naive.messages

    def test_naive_max_level_still_exact(self, storage_system):
        assert_exact(storage_system, "(comp*, *)", NaiveEngine(max_level=4))


class TestMakeEngine:
    def test_by_name(self):
        assert make_engine("optimized").name == "optimized"
        assert make_engine("naive").name == "naive"

    def test_kwargs(self):
        assert make_engine("optimized", aggregate=False).aggregate is False

    def test_unknown(self):
        with pytest.raises(EngineError):
            make_engine("flooding")


class TestErrors:
    def test_empty_system(self):
        space = KeywordSpace([WordDimension("a")], bits=4)
        from repro.overlay.chord import ChordRing

        system = SquidSystem(space, ChordRing(4))
        with pytest.raises(EngineError):
            system.query("(a*,)".replace(",", ""), rng=0)

    def test_bad_origin(self, storage_system):
        with pytest.raises(EngineError):
            storage_system.query("(comp*, *)", origin=123456789, rng=0)


class TestChurnDuringQueries:
    def test_queries_exact_after_membership_changes(self):
        system = fresh_storage_system(n_nodes=30, n_keys=250, seed=8)
        rng = np.random.default_rng(9)
        for step in range(10):
            if step % 2 == 0:
                new_id = int(rng.integers(0, system.overlay.space))
                if new_id not in system.overlay.nodes:
                    system.add_node(new_id)
            else:
                ids = system.overlay.node_ids()
                system.remove_node(ids[int(rng.integers(0, len(ids)))])
            assert system.check_placement_invariant()
            assert_exact(system, "(comp*, *)", OptimizedEngine())
            assert_exact(system, "(*, s*)", OptimizedEngine())
