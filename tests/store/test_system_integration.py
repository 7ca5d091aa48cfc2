"""Backend-swap integration: the system behaves identically on any store.

The data plane is below every observable surface — query results, stats,
replication recovery.  These tests run the same seeded
workload per backend and require the outputs to be *identical*, not merely
equivalent: matching payload lists in matching order, equal stats dicts.
"""

from __future__ import annotations

import random

import pytest

from repro import KeywordSpace, NumericDimension, SquidSystem, WordDimension
from repro.store import StoreSpec

BACKENDS = ["local", "sqlite"]

WORDS = ["computer", "compiler", "network", "storage", "memory", "monitor"]
QUERIES = [
    "(computer, 512)",
    "(comp*, 512)",
    "(*, 256)",
    "(*, 100-600)",
]


def build_system(store, seed=11, n_nodes=12, n_docs=120):
    space = KeywordSpace(
        [WordDimension("keyword"), NumericDimension("size", 1, 1024)], bits=6
    )
    system = SquidSystem.create(space, n_nodes=n_nodes, seed=seed, store=store)
    rng = random.Random(seed)
    keys = [
        (rng.choice(WORDS), float(rng.choice([128, 256, 300, 512, 640])))
        for _ in range(n_docs)
    ]
    system.publish_many(keys, payloads=range(n_docs))
    return system


def run_workload(system, engine):
    origin = system.overlay.node_ids()[0]
    payloads, stats = [], []
    for text in QUERIES:
        result = system.query(text, origin=origin, rng=0, engine=engine)
        payloads.append([e.payload for e in result.matches])
        stats.append(result.stats.as_dict())
    return payloads, stats


class TestQueryEquivalence:
    @pytest.mark.parametrize("engine", ["optimized", "naive"])
    def test_identical_results_and_stats_across_backends(self, tmp_path, engine):
        reference = None
        for backend in BACKENDS:
            store = (
                StoreSpec("sqlite", {"path": str(tmp_path / "ring")})
                if backend == "sqlite"
                else backend
            )
            system = build_system(store)
            assert system.store_spec.name == backend
            got = run_workload(system, engine)
            assert got[0][0], "seeded workload must produce matches"
            if reference is None:
                reference = got
            else:
                assert got == reference, backend

    def test_query_results_preserve_identity(self):
        """Matches are the published element objects, on every backend."""
        for backend in BACKENDS:
            system = build_system(backend, n_docs=40)
            published = {id(e) for s in system.stores.values() for e in s.all_elements()}
            result = system.query("(*, 100-600)", origin=system.overlay.node_ids()[0])
            assert result.matches, backend
            assert all(id(e) in published for e in result.matches), backend


class TestReplicationAcrossBackends:
    def test_crash_recovery_is_backend_agnostic(self):
        from repro import ReplicationManager

        losses = {}
        for backend in BACKENDS:
            system = build_system(backend, n_docs=80)
            manager = ReplicationManager(system, degree=2)
            assert manager.verify_degree(), backend
            victim = system.overlay.node_ids()[2]
            manager.crash(victim)
            manager.repair()
            assert manager.verify_degree(), backend
            losses[backend] = manager.stats.elements_lost
            total = sum(s.element_count for s in system.stores.values())
            assert total == 80 - losses[backend], backend
        assert len(set(losses.values())) == 1  # identical loss accounting


class TestMembershipChurn:
    def test_join_and_leave_move_data_identically(self):
        snapshots = {}
        for backend in BACKENDS:
            system = build_system(backend, n_docs=60, n_nodes=8)
            new_id = max(system.overlay.node_ids()) // 2 + 1
            if new_id not in system.overlay.node_ids():
                system.add_node(new_id)
            victim = system.overlay.node_ids()[1]
            system.remove_node(victim)
            snapshots[backend] = {
                nid: [(e.index, e.key, e.payload) for e in store.all_elements()]
                for nid, store in system.stores.items()
            }
        assert snapshots["sqlite"] == snapshots["local"]


def _contents(system):
    return {
        nid: [(e.index, e.key, e.payload) for e in store.all_elements()]
        for nid, store in system.stores.items()
    }


def _handoff_system(backend, tmp_path):
    """Distinct sizes (many indices), repeated keys (multi-element runs)."""
    store = backend
    if backend == "sqlite":  # one shared file: rows outlive a closed store
        store = StoreSpec("sqlite", {"path": str(tmp_path / "ring")})
    space = KeywordSpace(
        [WordDimension("keyword"), NumericDimension("size", 1, 1024)], bits=6
    )
    system = SquidSystem.create(space, n_nodes=10, seed=5, store=store)
    rng = random.Random(5)
    keys = [(rng.choice(WORDS), rng.uniform(1, 1024)) for _ in range(150)]
    keys += [rng.choice(keys) for _ in range(150)]
    system.publish_many(keys, payloads=range(len(keys)))
    return system


class TestHandoffRoundTrip:
    """A handoff and its inverse leave every store as it was, order included."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_join_then_leave_the_same_id(self, tmp_path, backend):
        system = _handoff_system(backend, tmp_path)
        before = _contents(system)
        ids = system.overlay.node_ids()
        indices = sorted({e.index for s in system.stores.values() for e in s.all_elements()})
        # Just past a stored index, so the joiner takes elements: one joiner
        # below the lowest node (its range wraps past zero), others inside.
        candidates = [i + 1 for i in indices if i < ids[0]][:1]
        candidates += [i + 1 for i in indices[:: max(len(indices) // 6, 1)]]
        candidates = [i for i in dict.fromkeys(candidates) if i not in system.stores]
        joined = 0
        # Twice over: a rejoin under a departed identifier starts empty.
        for new_id in candidates * 2:
            system.add_node(new_id)
            joined += system.stores[new_id].element_count > 0
            system.remove_node(new_id)
            assert _contents(system) == before, new_id
        assert joined >= 6

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_move_an_id_out_and_back(self, tmp_path, backend):
        system = _handoff_system(backend, tmp_path)
        before = _contents(system)
        ids = system.overlay.node_ids()
        moves = 0
        for pred, old, succ in zip(ids, ids[1:], ids[2:]):
            for new_id in ((pred + old) // 2, (old + succ) // 2):
                if new_id in (pred, old, succ):
                    continue
                moved, _ = system.change_node_id(old, new_id)
                moves += moved > 0
                system.change_node_id(new_id, old)
                assert _contents(system) == before, (old, new_id)
        assert moves >= 4


class TestCrashForgets:
    """A crash loses the node's elements for good, on every backend: a node
    that rejoins under the crashed identifier starts empty instead of
    adopting the rows a shared ``sqlite`` file kept."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_rejoin_under_a_crashed_id_does_not_restore_its_elements(
        self, tmp_path, backend
    ):
        system = _handoff_system(backend, tmp_path)
        victim = max(system.stores, key=lambda nid: system.stores[nid].element_count)
        assert system.stores[victim].element_count == 80
        assert system.total_elements() == 300
        system.fail_node(victim)
        assert system.total_elements() == 220
        system.add_node(victim)
        assert system.total_elements() == 220
        assert system.stores[victim].element_count == 0
