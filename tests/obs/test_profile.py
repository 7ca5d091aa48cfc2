"""Phase profiling of the hot SFC encode/refine and engine scan paths."""

from repro.obs import (
    PhaseProfiler,
    disable_profiling,
    enable_profiling,
    profiling,
)

from tests.obs.conftest import build_system

QUERY = "(comp*, *)"


class TestProfiler:
    def test_record_accumulates(self):
        prof = PhaseProfiler()
        prof.record("a", 0.5)
        prof.record("a", 0.25)
        prof.record("b", 1.0)
        snap = prof.snapshot()
        assert snap["a"] == {"calls": 2, "seconds": 0.75}
        assert snap["b"]["calls"] == 1
        assert list(snap) == sorted(snap)

    def test_phase_context_times_block(self):
        prof = PhaseProfiler()
        with prof.phase("x"):
            pass
        assert prof.snapshot()["x"]["calls"] == 1
        assert prof.snapshot()["x"]["seconds"] >= 0

    def test_to_text(self):
        prof = PhaseProfiler()
        assert prof.to_text() == "(no profiled phases)"
        prof.record("sfc.refine", 0.1)
        assert "sfc.refine" in prof.to_text()

    def test_reset(self):
        prof = PhaseProfiler()
        prof.record("a", 1.0)
        prof.reset()
        assert prof.snapshot() == {}


class TestActivation:
    def test_enable_disable_round_trip(self):
        assert disable_profiling() is None
        prof = enable_profiling()
        try:
            assert isinstance(prof, PhaseProfiler)
        finally:
            assert disable_profiling() is prof
        assert disable_profiling() is None

    def test_profiling_scope_restores_previous(self):
        system = build_system()
        key = ("memory", "disk")
        with profiling() as outer:
            with profiling() as inner:
                system.index_of(key)
            system.index_of(key)
        system.index_of(key)
        assert inner.snapshot()["sfc.encode"]["calls"] == 1
        assert outer.snapshot()["sfc.encode"]["calls"] == 1
        assert disable_profiling() is None


class TestHotPathHooks:
    def test_query_populates_hot_phases(self):
        system = build_system()
        with profiling() as prof:
            system.publish(("memory", "disk"))
            system.query(QUERY, rng=0)
            system.query(QUERY, engine="naive", rng=0)  # exercises sfc.resolve
        snap = prof.snapshot()
        for phase in ("sfc.encode", "sfc.refine", "sfc.resolve", "engine.scan"):
            assert snap[phase]["calls"] >= 1, f"missing phase {phase}"
            assert snap[phase]["seconds"] >= 0

    def test_disabled_profiler_collects_nothing(self):
        system = build_system()
        prof = PhaseProfiler()
        system.query(QUERY, rng=0)  # no active profiler
        assert prof.snapshot() == {}
        assert disable_profiling() is None
