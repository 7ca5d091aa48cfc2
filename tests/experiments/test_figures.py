"""Integration tests for the figure runners (tiny/small scales).

``python -m repro report`` asserts the paper's shape claims
(``SHAPE_CHECKS``); here we check that each runner produces well-formed
results and that the registry is complete.
"""

import pytest

from repro.experiments import FIGURES, run_figure
from repro.experiments.runner import SCALES, ScalePreset


# An extra-tiny preset so the integration tests stay fast.
SCALES.setdefault(
    "tiny",
    ScalePreset(
        name="tiny",
        node_counts=(30, 45, 60, 75, 90),
        key_counts=(400, 600, 800, 1000, 1200),
        vocabulary_size=500,
    ),
)


class TestRegistry:
    def test_all_eleven_figures_present(self):
        assert sorted(FIGURES) == [f"fig{i:02d}" for i in range(9, 20)]

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            run_figure("fig99")


class TestSweepFigures:
    @pytest.mark.parametrize(
        "figure,n_queries", [("fig09", 6), ("fig11", 5), ("fig12", 6), ("fig14", 5)]
    )
    def test_document_sweeps(self, figure, n_queries):
        result = run_figure(figure, scale="tiny")
        sizes = sorted({row["nodes"] for row in result.rows})
        assert sizes == [30, 45, 60, 75, 90]
        assert len(result.rows) == 5 * n_queries
        for row in result.rows:
            assert row["data_nodes"] <= row["processing_nodes"] <= row["routing_nodes"]
            assert row["matches"] >= 0

    def test_resource_sweep(self):
        result = run_figure("fig15", scale="tiny")
        assert len(result.rows) == 5 * 4
        assert all(row["matches"] >= 1 for row in result.rows)

    def test_fig17(self):
        result = run_figure("fig17", scale="tiny")
        assert len(result.rows) == 5 * 5


class TestSnapshotFigures:
    def test_fig10_extracts_two_snapshots(self):
        result = run_figure("fig10", scale="tiny")
        assert sorted({row["nodes"] for row in result.rows}) == [60, 90]
        assert len(result.rows) == 2 * 6

    def test_fig13(self):
        result = run_figure("fig13", scale="tiny")
        assert len({row["nodes"] for row in result.rows}) == 2

    def test_fig16(self):
        result = run_figure("fig16", scale="tiny")
        assert len({row["nodes"] for row in result.rows}) == 2


class TestDistributionFigures:
    def test_fig18_histogram(self):
        result = run_figure("fig18", scale="tiny")
        counts = result.series("keys")
        assert len(counts) == 500
        assert sum(counts) == 1200  # every key lands in one interval

    def test_fig19_variants(self):
        result = run_figure("fig19", scale="tiny")
        variants = {row["variant"] for row in result.rows}
        assert variants == {"none", "join", "join+runtime"}
        for variant in variants:
            loads = [r["load"] for r in result.rows if r["variant"] == variant]
            assert sum(loads) == 1200

    def test_fig19_improvement_direction(self):
        from repro.util.stats import coefficient_of_variation

        result = run_figure("fig19", scale="tiny")

        def cov(variant):
            return coefficient_of_variation(
                [r["load"] for r in result.rows if r["variant"] == variant]
            )

        assert cov("join") < cov("none")


class TestDeterminism:
    def test_same_seed_same_rows(self):
        a = run_figure("fig09", scale="tiny", seed=5)
        b = run_figure("fig09", scale="tiny", seed=5)
        assert a.rows == b.rows

    def test_different_seed_different_queries(self):
        a = run_figure("fig09", scale="tiny", seed=5)
        b = run_figure("fig09", scale="tiny", seed=6)
        assert a.series("query") != b.series("query")
