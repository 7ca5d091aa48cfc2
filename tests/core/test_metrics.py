"""Unit tests for the query metrics accumulator (the counting event sink)."""

from repro.core.metrics import HotspotMonitor, QueryResult, QueryStats
from repro.store import StoredElement


class TestQueryStats:
    def test_record_path(self):
        stats = QueryStats()
        stats.sent(0, 1, 3, "probe", (1, 2, 3))
        assert stats.messages == 1
        assert stats.hops == 2
        assert stats.routing_nodes == {1, 2, 3}

    def test_record_path_self_delivery(self):
        stats = QueryStats()
        stats.sent(0, 7, 7, "routed", (7,))
        assert stats.messages == 1
        assert stats.hops == 0

    def test_record_direct(self):
        stats = QueryStats()
        for kind in ("reply", "batch", "handoff", "dup"):
            stats.sent(0, 1, 2, kind, size=3)
        assert stats.messages == 4
        assert stats.hops == 4
        assert stats.aggregated_batches == 1
        assert stats.messages_duplicated == 1
        assert stats.routing_nodes == set()

    def test_record_processing_tracks_level(self):
        stats = QueryStats()
        stats.visit(0, 5, 2)
        stats.visit(0, 6, 7)
        stats.visit(0, 5, 1)
        assert stats.processing_nodes == {5, 6}
        assert stats.clusters_processed == 3
        assert stats.max_refinement_level == 7
        # Processing nodes count as routing nodes too (they held the query).
        assert {5, 6} <= stats.routing_nodes

    def test_counts(self):
        stats = QueryStats()
        stats.sent(0, 1, 2, "probe", (1, 2))
        stats.visit(0, 2, 0)
        stats.scanned(0, 2, None, None, 0, 9, found=1)
        assert stats.routing_node_count == 2
        assert stats.processing_node_count == 1
        assert stats.data_node_count == 1

    def test_completion_monotone(self):
        stats = QueryStats()
        stats.scanned(0, 1, None, None, 0, 9, found=0, done=5.0)
        stats.scanned(0, 1, None, None, 0, 9, found=0, done=3.0)
        assert stats.completion_time == 5.0

    def test_first_match_minimum(self):
        stats = QueryStats()
        assert stats.time_to_first_match is None
        stats.scanned(0, 1, None, None, 0, 9, found=2, done=9.0)
        stats.scanned(0, 1, None, None, 0, 9, found=0, done=2.0)
        stats.scanned(0, 1, None, None, 0, 9, found=1, done=4.0)
        stats.scanned(0, 1, None, None, 0, 9, found=1, done=6.0)
        assert stats.time_to_first_match == 4.0

    def test_as_row(self):
        stats = QueryStats()
        stats.sent(0, 1, 3, "routed", (1, 2, 3))
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
        stats.visit(0, 1, 0)
        stats.visit(0, 2, 0)
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
