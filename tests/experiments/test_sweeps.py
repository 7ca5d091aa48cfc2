"""Unit tests for the sweep helpers behind the figure table."""

from repro.experiments.figures import documents, growth_sweep, resources, snapshot
from repro.experiments.runner import ScalePreset
from repro.keywords.query import Exact, Query, Wildcard
from repro.workloads.queries import q1_queries, q3_full_range_queries

TINY = ScalePreset(
    name="unit-tiny",
    node_counts=(20, 30, 40, 50, 60),
    key_counts=(200, 300, 400, 500, 600),
    vocabulary_size=300,
)


class TestDocumentGrowthSweep:
    def test_rows_per_size_and_query(self):
        result = growth_sweep(
            "figX",
            "unit test sweep",
            scale=TINY,
            make_workload=documents(2),
            make_queries=lambda wl: q1_queries(wl, count=3, rng=0),
            seed=1,
        )
        assert len(result.rows) == 5 * 3
        assert result.figure == "figX"
        sizes = sorted({r["nodes"] for r in result.rows})
        assert sizes == list(TINY.node_counts)

    def test_queries_fixed_across_sizes(self):
        result = growth_sweep(
            "figX",
            "t",
            scale=TINY,
            make_workload=documents(2),
            make_queries=lambda wl: q1_queries(wl, count=2, rng=0),
            seed=2,
        )
        per_size = {}
        for row in result.rows:
            per_size.setdefault(row["nodes"], []).append(row["query"])
        query_sets = {tuple(sorted(v)) for v in per_size.values()}
        assert len(query_sets) == 1  # the same queries at every size

    def test_notes_mention_sweep(self):
        result = growth_sweep(
            "figX",
            "t",
            scale=TINY,
            make_workload=documents(2),
            make_queries=lambda wl: [Query((Exact(wl.keys[0][0]), Wildcard()))],
            seed=3,
        )
        assert any("swept" in note for note in result.notes)


class TestResourceGrowthSweep:
    def test_rows(self):
        result = growth_sweep(
            "figY",
            "unit resource sweep",
            scale=TINY,
            make_workload=resources,
            make_queries=lambda wl: q3_full_range_queries(wl, count=2, rng=0),
            seed=4,
        )
        assert len(result.rows) == 5 * 2
        assert all(r["matches"] >= 1 for r in result.rows)


class TestSnapshotRuns:
    def test_extracts_requested_sizes(self):
        sweep = growth_sweep(
            "figX",
            "t",
            scale=TINY,
            make_workload=documents(2),
            make_queries=lambda wl: q1_queries(wl, count=2, rng=0),
            seed=5,
        )
        snap = snapshot("figZ", "snapshot", sweep, [(30, 300), (60, 600)])
        assert sorted({r["nodes"] for r in snap.rows}) == [30, 60]
        assert len(snap.rows) == 2 * 2
        assert snap.figure == "figZ"

    def test_missing_snapshot_size_yields_no_rows(self):
        sweep = growth_sweep(
            "figX",
            "t",
            scale=TINY,
            make_workload=documents(2),
            make_queries=lambda wl: q1_queries(wl, count=1, rng=0),
            seed=6,
        )
        snap = snapshot("figZ", "s", sweep, [(999, 999)])
        assert snap.rows == []
