"""Resilient execution of :class:`OptimizedEngine` under an active fault plane.

Covers the contract the fault-injection PR introduces: drops retried with
backoff, exhausted destinations failed over to ring successors (served from
replica stores when a :class:`ReplicationManager` is wired), crashes during
a query recovered or reported, and — when recovery is impossible — results
marked ``complete=False`` with the unreached index ranges accounted in
``unresolved_ranges`` instead of silently shrinking the match set.
"""

import numpy as np

from repro.core.engine import OptimizedEngine
from repro.core.metrics import merge_index_ranges
from repro.core.replication import ReplicationManager
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from tests.core.conftest import fresh_storage_system

QUERIES = ["(comp*, *)", "(*, net*)", "(data, *)", "(s*, *)"]


def _oracle(system, query):
    return sorted(str(e.key) for e in system.brute_force_matches(query))


def _run(system, engine, seed=0, queries=QUERIES):
    rng = np.random.default_rng(seed)
    out = []
    for i, query in enumerate(queries):
        ids = system.overlay.node_ids()  # re-read: the plane may crash nodes
        origin = ids[(i * 7) % len(ids)]
        out.append(engine.execute(system, query, origin=origin, rng=rng))
    return out


class TestRetryRecoversDrops:
    def test_full_recall_and_completeness(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
        plane = FaultPlane(FaultConfig(drop_rate=0.25, seed=2))
        engine = OptimizedEngine(fault_plane=plane, retry=RetryPolicy())
        results = _run(system, engine)
        assert plane.stats.dropped > 0
        for query, res in zip(QUERIES, results):
            assert sorted(str(e.key) for e in res.matches) == _oracle(system, query)
            assert res.complete and res.unresolved_ranges == ()
        assert sum(r.stats.retries for r in results) > 0

    def test_retry_costs_are_charged(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
        plain = OptimizedEngine()
        baseline = sum(r.stats.messages for r in _run(system, plain))
        plane = FaultPlane(FaultConfig(drop_rate=0.25, seed=2))
        faulty = OptimizedEngine(fault_plane=plane, retry=RetryPolicy())
        spent = sum(r.stats.messages for r in _run(system, faulty))
        assert spent > baseline  # retransmissions are real messages

    def test_deterministic_replay(self):
        def once():
            system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
            plane = FaultPlane(FaultConfig(drop_rate=0.3, seed=5))
            engine = OptimizedEngine(fault_plane=plane, retry=RetryPolicy())
            results = _run(system, engine)
            return (
                [sorted(str(e.key) for e in r.matches) for r in results],
                [r.stats.as_dict() for r in results],
            )

        assert once() == once()


class TestHonestIncompleteness:
    def test_unmitigated_drops_are_reported(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
        plane = FaultPlane(FaultConfig(drop_rate=0.3, seed=7))
        engine = OptimizedEngine(fault_plane=plane)  # no retry policy
        results = _run(system, engine)
        incomplete = [r for r in results if not r.complete]
        assert incomplete, "0.3 drop rate without mitigation must lose branches"
        for res in incomplete:
            assert res.unresolved_ranges
            assert res.unresolved_span > 0
            assert res.stats.lost_branches > 0
        # Losses never invent matches: results stay a subset of the oracle.
        for query, res in zip(QUERIES, results):
            got = {str(e.key) for e in res.matches}
            assert got <= set(_oracle(system, query))

    def test_unresolved_ranges_are_coalesced(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
        plane = FaultPlane(FaultConfig(drop_rate=0.35, seed=3))
        engine = OptimizedEngine(fault_plane=plane)
        for res in _run(system, engine):
            ranges = res.unresolved_ranges
            assert ranges == merge_index_ranges(ranges)
            assert all(lo <= hi for lo, hi in ranges)

    def test_zero_fault_plane_never_marks_incomplete(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
        engine = OptimizedEngine(fault_plane=FaultPlane(), retry=RetryPolicy())
        assert all(r.complete for r in _run(system, engine))


class TestCrashDuringQuery:
    def test_replicated_crash_stays_exact(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=4)
        manager = ReplicationManager(system, degree=2)
        plane = FaultPlane(FaultConfig(crash_rate=0.08, drop_rate=0.1, seed=6))
        plane.attach_system(system, replication=manager)
        engine = OptimizedEngine(
            fault_plane=plane, retry=RetryPolicy(), replication=manager
        )
        results = _run(system, engine, queries=QUERIES * 2)
        assert plane.stats.crashed > 0, "seed must actually crash nodes"
        for query, res in zip(QUERIES * 2, results):
            # Oracle recomputed after the crashes: replication lost nothing.
            assert sorted(str(e.key) for e in res.matches) == _oracle(system, query)
            assert res.complete

    def test_unreplicated_crash_loses_data_but_never_invents_matches(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=4)
        before = sum(s.element_count for s in system.stores.values())
        oracle_before = {q: set(_oracle(system, q)) for q in QUERIES}
        plane = FaultPlane(FaultConfig(crash_rate=0.1, seed=6))
        plane.attach_system(system)
        engine = OptimizedEngine(fault_plane=plane, retry=RetryPolicy())
        results = _run(system, engine, queries=QUERIES * 2)
        assert plane.stats.crashed > 0
        # Without replication the crashed stores are really gone …
        assert sum(s.element_count for s in system.stores.values()) < before
        # … but queries only ever shrink toward the surviving data, and the
        # crash itself does not poison completeness: the successor now owns
        # the range legitimately (incompleteness is reserved for branches
        # the engine could not reach, tested above).
        for query, res in zip(QUERIES * 2, results):
            assert {str(e.key) for e in res.matches} <= oracle_before[query]
        # A post-crash query through a fault-free engine is exact against
        # what survived: the ring healed around every crash.
        clean = OptimizedEngine()
        for query in QUERIES:
            res = clean.execute(
                system, query, origin=system.overlay.node_ids()[0], rng=0
            )
            assert sorted(str(e.key) for e in res.matches) == _oracle(system, query)

    def test_failover_without_replicas_is_reported(self):
        # A destination that drops every message forces failover to its
        # successor; with no replica store to serve the range, the result
        # must be marked incomplete rather than silently partial.
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=4)
        plane = FaultPlane(FaultConfig(drop_rate=0.45, seed=9))
        engine = OptimizedEngine(fault_plane=plane, retry=RetryPolicy())
        results = _run(system, engine, queries=QUERIES * 2)
        assert sum(r.stats.failovers for r in results) > 0
        assert any(not r.complete and r.unresolved_ranges for r in results)


class TestDuplication:
    def test_duplicates_cost_messages_not_correctness(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=1)
        plane = FaultPlane(FaultConfig(duplicate_rate=0.4, seed=8))
        engine = OptimizedEngine(fault_plane=plane, retry=RetryPolicy())
        results = _run(system, engine)
        assert sum(r.stats.messages_duplicated for r in results) > 0
        for query, res in zip(QUERIES, results):
            assert sorted(str(e.key) for e in res.matches) == _oracle(system, query)
            assert res.complete


class TestTraceUnderFaults:
    def test_trace_totals_match_stats(self):
        system = fresh_storage_system(n_nodes=32, n_keys=300, seed=4)
        manager = ReplicationManager(system, degree=2)
        plane = FaultPlane(
            FaultConfig(
                drop_rate=0.15, crash_rate=0.03, duplicate_rate=0.05,
                delay_rate=0.1, seed=12,
            )
        )
        plane.attach_system(system, replication=manager)
        engine = OptimizedEngine(
            fault_plane=plane, retry=RetryPolicy(), replication=manager
        )
        system.attach_tracer()
        try:
            results = _run(system, engine, queries=QUERIES * 2)
        finally:
            system.detach_tracer()
        for res in results:
            totals = res.trace.totals()
            stats = res.stats
            assert totals["messages"] == stats.messages
            assert totals["hops"] == stats.hops
            assert totals["lost_branches"] == stats.lost_branches
            assert totals["routing_nodes"] == stats.routing_nodes
            assert totals["processing_nodes"] == stats.processing_nodes


class TestStatsPlumbing:
    def test_merge_index_ranges(self):
        assert merge_index_ranges([]) == ()
        assert merge_index_ranges([(5, 9), (0, 2)]) == ((0, 2), (5, 9))
        assert merge_index_ranges([(0, 3), (4, 6), (10, 12)]) == ((0, 6), (10, 12))
        assert merge_index_ranges([(0, 5), (2, 8), (8, 9)]) == ((0, 9),)
