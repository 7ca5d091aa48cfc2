"""Metrics registry: instrument semantics and deterministic snapshots."""

import pytest

from repro.obs import (
    MetricsRegistry,
    collecting,
    get_registry,
    set_registry,
)

from tests.obs.conftest import build_system

QUERY = "(comp*, *)"


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.snapshot()["counters"] == {"c": 5}

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(10)
        reg.gauge("g").add(-3)
        assert reg.snapshot()["gauges"] == {"g": 7}

    def test_histogram_buckets_and_summary(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h")
        for value in (1, 2, 3, 100, 50_000):
            hist.observe(value)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["count"] == 5
        assert snap["sum"] == 50_106
        assert snap["min"] == 1
        assert snap["max"] == 50_000
        assert sum(snap["buckets"].values()) == 5
        assert snap["buckets"]["inf"] == 1  # the overflow observation

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestRegistryActivation:
    def test_collecting_installs_and_restores(self):
        before = get_registry()
        with collecting() as reg:
            assert get_registry() is reg
        assert get_registry() is before

    def test_set_registry_returns_previous(self):
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            set_registry(previous)

    def test_no_registry_means_no_collection(self):
        system = build_system()
        assert get_registry() is None
        result = system.query(QUERY, rng=0)  # must not raise anywhere
        assert result.match_count > 0


class TestSystemReporting:
    def test_query_metrics_reported(self):
        system = build_system()
        with collecting() as reg:
            system.query(QUERY, rng=0)
            system.query(QUERY, engine="naive", rng=0)
        counters = reg.snapshot()["counters"]
        assert counters["engine.optimized.queries"] == 1
        assert counters["engine.naive.queries"] == 1
        assert counters["query.messages.total"] > 0
        assert counters["overlay.routes"] > 0
        histograms = reg.snapshot()["histograms"]
        assert histograms["query.messages"]["count"] == 2

    def test_membership_metrics_reported(self):
        system = build_system()
        with collecting() as reg:
            new_id = next(
                i
                for i in range(1, system.overlay.space)
                if i not in system.overlay.nodes
            )
            system.add_node(new_id)
            system.remove_node(new_id)
        counters = reg.snapshot()["counters"]
        assert counters["system.nodes_joined"] == 1
        assert counters["system.nodes_left"] == 1
        assert reg.snapshot()["gauges"]["system.nodes"] == len(system.overlay)

    def test_publish_and_store_metrics(self):
        system = build_system()
        with collecting() as reg:
            system.publish(("memory", "disk"), payload="extra")
        counters = reg.snapshot()["counters"]
        assert counters["system.publishes"] == 1
        assert counters["store.elements_added"] == 1

    def test_plan_cache_counters(self):
        system = build_system()
        with collecting() as reg:
            system.query(QUERY, rng=0)  # cold: one miss per engine plan
            system.query(QUERY, rng=1)  # warm: planned from cache
            system.query(QUERY, rng=2)
        counters = reg.snapshot()["counters"]
        assert counters["plan_cache.misses"] == 1
        assert counters["plan_cache.hits"] == 2
        assert "plan_cache.evictions" not in counters

    def test_refine_kernel_counters(self):
        from repro.sfc.clusters import _resolve_level_by_level

        system = build_system()
        with collecting() as reg:
            system.query("(*, net*)", engine="naive", rng=0)
            counters = reg.snapshot()["counters"]
            # The naive engine resolves the region through the NumPy kernel.
            assert counters["sfc.refine.vec_calls"] >= 1
            assert counters["sfc.refine.vec_cells"] >= 1
            reg.reset()
            # The same region level by level (the wide-curve path): scalar.
            _resolve_level_by_level(system.curve, system.space.region("(*, net*)"))
            counters = reg.snapshot()["counters"]
            assert counters["sfc.refine.scalar_cells"] >= 1
            assert "sfc.refine.vec_calls" not in counters

    def test_kernel_counters_deterministic(self):
        from repro.sfc.clusters import resolve_clusters
        from repro.sfc.hilbert import HilbertCurve
        from repro.sfc.regions import Region

        curve = HilbertCurve(2, 8)
        region = Region.from_bounds([(10, 120), (40, 200)])

        def run():
            with collecting() as reg:
                resolve_clusters(curve, region)
            return reg.snapshot()

        assert run() == run()

    def test_snapshot_deterministic_under_fixed_seed(self):
        def run():
            with collecting() as reg:
                system = build_system(seed=11)
                system.query(QUERY, rng=3)
                system.query("(*, net*)", engine="naive", rng=4)
            return reg.snapshot()

        assert run() == run()

    def test_to_text_lists_sorted_names(self):
        with collecting() as reg:
            system = build_system()
            system.query(QUERY, rng=0)
        lines = reg.to_text().splitlines()
        names = [line.split()[0] for line in lines]
        counter_names = [n for n in names if n in reg.snapshot()["counters"]]
        assert counter_names == sorted(counter_names)
        assert "engine.optimized.queries" in names
