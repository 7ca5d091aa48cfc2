"""Unit tests for the query metrics accumulator."""

from repro.core.metrics import HotspotMonitor, QueryResult, QueryStats
from repro.store import StoredElement


class TestQueryStats:
    def test_record_path(self):
        stats = QueryStats()
        stats.record_path((1, 2, 3))
        assert stats.messages == 1
        assert stats.hops == 2
        assert stats.routing_nodes == {1, 2, 3}

    def test_record_path_self_delivery(self):
        stats = QueryStats()
        stats.record_path((7,))
        assert stats.messages == 1
        assert stats.hops == 0

    def test_record_direct(self):
        stats = QueryStats()
        stats.record_direct()
        stats.record_direct(3)
        assert stats.messages == 4
        assert stats.hops == 4

    def test_record_processing_tracks_level(self):
        stats = QueryStats()
        stats.record_processing(5, 2)
        stats.record_processing(6, 7)
        stats.record_processing(5, 1)
        assert stats.processing_nodes == {5, 6}
        assert stats.clusters_processed == 3
        assert stats.max_refinement_level == 7
        # Processing nodes count as routing nodes too (they held the query).
        assert {5, 6} <= stats.routing_nodes

    def test_counts(self):
        stats = QueryStats()
        stats.record_path((1, 2))
        stats.record_processing(2, 0)
        stats.record_data_node(2)
        assert stats.routing_node_count == 2
        assert stats.processing_node_count == 1
        assert stats.data_node_count == 1

    def test_completion_monotone(self):
        stats = QueryStats()
        stats.record_completion(5.0)
        stats.record_completion(3.0)
        assert stats.completion_time == 5.0

    def test_first_match_minimum(self):
        stats = QueryStats()
        assert stats.time_to_first_match is None
        stats.record_match_time(9.0)
        stats.record_match_time(4.0)
        stats.record_match_time(6.0)
        assert stats.time_to_first_match == 4.0

    def test_as_row(self):
        stats = QueryStats()
        stats.record_path((1, 2, 3))
        row = stats.as_row()
        assert row["routing_nodes"] == 3
        assert row["messages"] == 1
        assert row["hops"] == 2


class TestQueryResult:
    def test_match_accessors(self):
        elements = [
            StoredElement(index=1, key=("a", "b"), payload="x"),
            StoredElement(index=2, key=("a", "b"), payload="y"),
            StoredElement(index=3, key=("c", "d"), payload="z"),
        ]
        result = QueryResult(query=None, matches=elements, stats=QueryStats())
        assert result.match_count == 3
        assert result.match_keys() == {("a", "b"), ("c", "d")}

    def test_empty(self):
        result = QueryResult(query=None, matches=[], stats=QueryStats())
        assert result.match_count == 0
        assert result.match_keys() == set()


class TestMonitor:
    def test_records_processing_load(self):
        stats = QueryStats()
        stats.record_processing(1, 0)
        stats.record_processing(2, 0)
        monitor = HotspotMonitor()
        monitor.record(stats)
        monitor.record(stats)
        assert monitor.max_load() == 2
        assert monitor.total_load() == 4
        assert monitor.hottest(1)[0][1] == 2

    def test_empty_monitor(self):
        monitor = HotspotMonitor()
        assert monitor.max_load() == 0
        assert monitor.hottest() == []
