"""Trace-tree invariants and the trace <-> QueryStats correspondence.

The acceptance bar for the tracing layer: a traced query yields a
reconstructable refinement tree whose per-node message/prune/aggregate
counts sum *exactly* to the ``QueryStats`` totals of the same run.
"""

import json

import pytest

from repro import NaiveEngine, OptimizedEngine, SquidSystem
from repro.obs import (
    Aggregated,
    ClusterRefined,
    KeyMoved,
    LocalScan,
    MessageSent,
    NodeJoined,
    NodeLeft,
    Pruned,
    Tracer,
)

from tests.obs.conftest import build_system

QUERY = "(comp*, *)"


def traced_query(system, **kwargs):
    system.attach_tracer()
    result = system.query(QUERY, origin=system.overlay.node_ids()[0], rng=0, **kwargs)
    assert result.trace is not None
    return result


def assert_totals_match(result):
    totals = result.trace.totals()
    stats = result.stats
    assert totals["messages"] == stats.messages
    assert totals["hops"] == stats.hops
    assert totals["routing_nodes"] == stats.routing_nodes
    assert totals["processing_nodes"] == stats.processing_nodes
    assert totals["data_nodes"] == stats.data_nodes
    assert totals["pruned_branches"] == stats.pruned_branches
    assert totals["aggregated_batches"] == stats.aggregated_batches
    assert totals["aborted_in_flight"] == stats.aborted_in_flight


class TestTraceStatsCorrespondence:
    @pytest.mark.parametrize("engine", ["optimized", "naive"])
    def test_totals_equal_stats(self, engine):
        system = build_system(engine=engine)
        result = traced_query(system)
        assert result.match_count > 0
        assert_totals_match(result)

    @pytest.mark.parametrize("engine", ["optimized", "naive"])
    def test_totals_equal_stats_under_limit(self, engine):
        system = build_system(engine=engine)
        result = traced_query(system, limit=1)
        assert result.match_count >= 1
        assert_totals_match(result)

    def test_limit_reports_aborted_in_flight(self):
        system = build_system()
        result = traced_query(system, limit=1)
        # Dispatched-but-unprocessed sub-queries are reported, and their
        # messages stay included in the totals (they were really sent).
        assert result.stats.aborted_in_flight >= 0
        assert (
            result.trace.totals()["aborted_in_flight"]
            == result.stats.aborted_in_flight
        )

    def test_traced_and_untraced_stats_identical(self):
        system = build_system()
        plain = system.query(QUERY, origin=system.overlay.node_ids()[0], rng=0)
        assert plain.trace is None
        traced = traced_query(system)
        plain_dict = plain.stats.as_dict()
        traced_dict = traced.stats.as_dict()
        # The repeated query plans from cache — orthogonal to tracing, and
        # by design it changes nothing else in the stats.
        assert plain_dict.pop("plan_cache_hit") is False
        assert traced_dict.pop("plan_cache_hit") is True
        assert traced_dict == plain_dict
        assert {e.payload for e in traced.matches} == {
            e.payload for e in plain.matches
        }


class TestTreeInvariants:
    def test_every_span_links_to_a_parent(self, system):
        trace = traced_query(system).trace
        ids = {span.span_id for span in trace.spans}
        assert trace.root.parent_id is None
        for span in trace.spans[1:]:
            assert span.parent_id in ids

    def test_every_message_has_an_owning_span(self, system):
        trace = traced_query(system).trace
        owned = [e for _, e in trace.iter_events() if isinstance(e, MessageSent)]
        assert owned == trace.events_of(MessageSent)
        assert len(owned) == trace.totals()["messages"]

    def test_pruned_spans_have_no_children(self, system):
        trace = traced_query(system).trace
        pruned_spans = [s for s in trace.spans if s.events_of(Pruned)]
        assert pruned_spans, "expected at least one pruned branch"
        for span in pruned_spans:
            assert trace.children(span.span_id) == []

    def test_refinement_levels_increase_along_edges(self, system):
        trace = traced_query(system).trace
        for span in trace.spans:
            for child in trace.children(span.span_id):
                assert child.level >= span.level

    def test_data_nodes_scanned_locally(self, system):
        result = traced_query(system)
        scans = result.trace.events_of(LocalScan)
        assert sum(e.found for e in scans) >= result.match_count
        assert {e.node_id for e in scans if e.found} == result.stats.data_nodes


class TestEngineContrast:
    def test_optimized_aggregates_where_naive_does_not(self):
        # Whether this ring and query produce same-destination siblings is a
        # property of the curve: a Hilbert-calibrated assertion.
        opt = traced_query(build_system(engine="optimized", curve="hilbert"))
        naive = traced_query(build_system(engine="naive", curve="hilbert"))
        batches = opt.trace.events_of(Aggregated)
        assert batches, "optimized engine should batch sibling sub-clusters"
        assert all(b.batch_size >= 2 for b in batches)
        assert naive.trace.events_of(Aggregated) == []

    def test_naive_sends_more_messages(self):
        opt = traced_query(build_system(engine="optimized"))
        naive = traced_query(build_system(engine="naive"))
        assert opt.stats.messages < naive.stats.messages
        assert {e.payload for e in opt.matches} == {e.payload for e in naive.matches}

    def test_optimized_refines_recursively(self, system):
        trace = traced_query(system).trace
        refined = trace.events_of(ClusterRefined)
        assert any(e.level > 0 for e in refined), "expected remote refinement"


class TestRendering:
    def test_to_tree_round_trips_through_json(self, system):
        trace = traced_query(system).trace
        payload = json.loads(trace.to_json())
        assert payload == trace.to_tree()
        assert payload["query"] == QUERY

        def count(node):
            return 1 + sum(count(c) for c in node["children"])

        assert count(payload["tree"]) == len(trace.spans)

    def test_render_mentions_prunes_and_matches(self, system):
        text = traced_query(system).trace.render()
        assert f"query '{QUERY}'" in text
        assert "pruned:" in text
        assert "found=" in text


class TestEngineSelectionApi:
    def test_create_accepts_engine_names(self):
        assert isinstance(build_system(engine="naive").default_engine, NaiveEngine)
        assert isinstance(
            build_system(engine="optimized").default_engine, OptimizedEngine
        )

    def test_query_accepts_names_and_instances(self, system):
        by_name = system.query(QUERY, engine="naive", rng=0)
        by_instance = system.query(QUERY, engine=NaiveEngine(), rng=0)
        assert {e.payload for e in by_name.matches} == {
            e.payload for e in by_instance.matches
        }

    def test_unknown_engine_name_rejected(self, system):
        with pytest.raises(Exception):
            system.query(QUERY, engine="quantum")


class TestTracerLifecycle:
    def test_membership_events_recorded(self, system):
        tracer = system.attach_tracer()
        new_id = next(
            i for i in range(1, system.overlay.space) if i not in system.overlay.nodes
        )
        system.add_node(new_id)
        system.remove_node(new_id)
        joins = [e for e in tracer.system_events if isinstance(e, NodeJoined)]
        leaves = [e for e in tracer.system_events if isinstance(e, NodeLeft)]
        moves = [e for e in tracer.system_events if isinstance(e, KeyMoved)]
        assert [e.node_id for e in joins] == [new_id]
        assert [e.node_id for e in leaves] == [new_id]
        assert all(m.count >= 0 for m in moves)

    def test_keep_bound_drops_oldest(self, system):
        tracer = system.attach_tracer(Tracer(keep=2))
        for _ in range(4):
            system.query(QUERY, rng=0)
        assert len(tracer.traces) == 2
        assert tracer.last is tracer.traces[-1]

    def test_detach_stops_tracing(self, system):
        tracer = system.attach_tracer()
        system.query(QUERY, rng=0)
        assert system.detach_tracer() is tracer
        assert system.tracer is None
        assert system.query(QUERY, rng=0).trace is None

    def test_clear(self, system):
        tracer = system.attach_tracer()
        system.query(QUERY, rng=0)
        tracer.clear()
        assert tracer.traces == [] and tracer.system_events == []
