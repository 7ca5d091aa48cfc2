"""Tests for the three load-balancing mechanisms (paper §3.5, Figure 19)."""

import numpy as np
import pytest

from repro import KeywordSpace, SquidSystem, WordDimension
from repro.core.loadbalance import (
    VirtualNodeManager,
    grow_with_join_lb,
    neighbor_balance_round,
    run_neighbor_balancing,
    sample_join_id,
)
from repro.errors import LoadBalanceError
from repro.util.stats import coefficient_of_variation, gini_coefficient
from repro.workloads.documents import DocumentWorkload
from repro.workloads.queries import q1_queries
from tests.core.conftest import WORDS, fresh_storage_system


def skewed_system(n_nodes=16, n_keys=600, seed=0):
    """A system whose keys cluster in one corner of the keyword space.

    Both keywords start with 'c', so all indices fall into a small slice of
    the curve (skew), while the following characters vary inside the
    coordinate resolution (16 bits ≈ 4 significant characters), keeping the
    hot region divisible by boundary shifts.
    """
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=16)
    system = SquidSystem.create(space, n_nodes=n_nodes, seed=seed)
    rng = np.random.default_rng(seed + 1)
    alpha = "abcdefghijklmnopqrstuvwxyz"
    keys = []
    for _ in range(n_keys):
        a = "c" + "".join(alpha[i] for i in rng.integers(0, 26, size=5))
        b = "c" + "".join(alpha[i] for i in rng.integers(0, 26, size=5))
        keys.append((a, b))
    system.publish_many(keys)
    return system


class TestSampleJoinId:
    def test_returns_unused_id_and_cost(self):
        system = skewed_system()
        node_id, cost = sample_join_id(system, samples=6, rng=3)
        assert node_id not in system.overlay.nodes
        assert cost > 0

    def test_prefers_loaded_region(self):
        """The sampled id's successor should be among the more loaded nodes."""
        system = skewed_system()
        loads = system.node_loads()
        median_load = float(np.median(list(loads.values())))
        hits = 0
        trials = 20
        for seed in range(trials):
            node_id, _ = sample_join_id(system, samples=8, rng=seed)
            succ = system.overlay.owner(node_id)
            if loads[succ] >= median_load:
                hits += 1
        assert hits > trials * 0.7

    def test_rejects_bad_samples(self):
        with pytest.raises(LoadBalanceError):
            sample_join_id(skewed_system(), samples=0)


class TestGrowWithJoinLB:
    def test_reaches_target(self):
        system = skewed_system(n_nodes=8)
        cost = grow_with_join_lb(system, 24, samples=6, rng=5)
        assert len(system.overlay) == 24
        assert cost > 0
        assert system.check_placement_invariant()

    def test_improves_balance_over_random_growth(self):
        """Join-time LB must yield better balance than uniform random ids."""
        lb = skewed_system(n_nodes=8, seed=2)
        grow_with_join_lb(lb, 48, samples=8, rng=7)
        random_sys = skewed_system(n_nodes=48, seed=2)
        lb_gini = gini_coefficient(list(lb.node_loads().values()))
        random_gini = gini_coefficient(list(random_sys.node_loads().values()))
        assert lb_gini < random_gini

    def test_queries_still_exact_after_growth(self):
        system = skewed_system(n_nodes=8, seed=3)
        grow_with_join_lb(system, 20, samples=4, rng=9)
        want = len(system.brute_force_matches("(comp*, *)"))
        assert system.query("(comp*, *)", rng=1).match_count == want

    def test_balanced_nodes_follow_the_data(self):
        """Join-time LB puts nodes where the keys are, so pruning improves:
        more of the nodes a query has to process actually hold matches."""
        workload = DocumentWorkload.generate(2, 8000, vocabulary_size=1500, bits=16, rng=0)
        queries = q1_queries(workload, count=6, rng=5)

        def data_per_processing_node(system):
            stats = [system.query(q, rng=6).stats for q in queries]
            return sum(s.data_node_count for s in stats) / sum(
                s.processing_node_count for s in stats
            )

        unbalanced = SquidSystem.create(workload.space, n_nodes=200, seed=3)
        unbalanced.publish_many(workload.keys)
        balanced = SquidSystem.create(workload.space, n_nodes=10, seed=3)
        balanced.publish_many(workload.keys)
        grow_with_join_lb(balanced, 200, samples=6, rng=3)
        assert data_per_processing_node(balanced) > data_per_processing_node(unbalanced)


class TestNeighborBalancing:
    def test_round_reduces_imbalance(self):
        system = skewed_system(n_nodes=24, seed=4)
        before = coefficient_of_variation(list(system.node_loads().values()))
        shifts, cost = run_neighbor_balancing(system, rounds=8, threshold=1.5)
        after = coefficient_of_variation(list(system.node_loads().values()))
        assert shifts > 0
        assert cost > 0
        assert after < before
        assert system.check_placement_invariant()

    def test_preserves_all_elements(self):
        system = skewed_system(n_nodes=24, seed=5)
        before = system.total_elements()
        run_neighbor_balancing(system, rounds=6, threshold=1.5)
        assert system.total_elements() == before

    def test_queries_exact_after_balancing(self):
        system = skewed_system(n_nodes=24, seed=6)
        run_neighbor_balancing(system, rounds=6, threshold=1.5)
        system.overlay.rebuild_all_fingers()
        for q in ["(comp*, *)", "(*, net*)", "(*, *)"]:
            want = len(system.brute_force_matches(q))
            assert system.query(q, rng=2).match_count == want

    def test_threshold_validation(self):
        with pytest.raises(LoadBalanceError):
            neighbor_balance_round(skewed_system(), threshold=0.5)

    def test_balanced_system_is_quiescent(self):
        system = skewed_system(n_nodes=24, seed=7)
        run_neighbor_balancing(system, rounds=10, threshold=1.5)
        shifts, _ = neighbor_balance_round(system, threshold=3.0)
        # After convergence, a looser threshold triggers nothing.
        assert shifts == 0


class TestVirtualNodes:
    def test_adopt_assigns_hosts(self):
        system = skewed_system(n_nodes=12, seed=8)
        manager = VirtualNodeManager.adopt(system, virtuals_per_peer=3)
        assert len(manager.physical_peers()) == 4
        assert sum(len(manager.virtuals_of(p)) for p in manager.physical_peers()) == 12

    def test_adopt_validation(self):
        with pytest.raises(LoadBalanceError):
            VirtualNodeManager.adopt(skewed_system(), virtuals_per_peer=0)

    def test_physical_loads_sum_to_total(self):
        system = skewed_system(n_nodes=12, seed=9)
        manager = VirtualNodeManager.adopt(system, virtuals_per_peer=2)
        assert sum(manager.physical_loads().values()) == system.total_keys()

    def test_split_reduces_max_virtual_load(self):
        system = skewed_system(n_nodes=12, seed=10)
        manager = VirtualNodeManager.adopt(system, virtuals_per_peer=2)
        peak_before = max(manager.virtual_loads().values())
        splits = manager.split_overloaded(threshold_keys=max(1, peak_before // 2))
        assert splits > 0
        assert max(manager.virtual_loads().values()) <= peak_before
        assert system.check_placement_invariant()

    def test_split_keeps_host(self):
        system = skewed_system(n_nodes=12, seed=11)
        manager = VirtualNodeManager.adopt(system, virtuals_per_peer=2)
        loads = manager.virtual_loads()
        heavy = max(loads, key=lambda v: loads[v])
        host = manager.host_of[heavy]
        new_id = manager.split_virtual(heavy)
        if new_id is not None:
            assert manager.host_of[new_id] == host

    def test_migration_improves_physical_balance(self):
        system = skewed_system(n_nodes=24, seed=12)
        manager = VirtualNodeManager.adopt(system, virtuals_per_peer=4)
        before = coefficient_of_variation(list(manager.physical_loads().values()))
        moves = manager.rebalance()
        after = coefficient_of_variation(list(manager.physical_loads().values()))
        assert moves > 0
        assert after <= before

    def test_migration_never_empties_a_peer(self):
        system = skewed_system(n_nodes=24, seed=13)
        manager = VirtualNodeManager.adopt(system, virtuals_per_peer=4)
        manager.rebalance()
        for peer in manager.physical_peers():
            assert len(manager.virtuals_of(peer)) >= 1

    def test_unknown_virtual_split_rejected(self):
        system = skewed_system(n_nodes=8, seed=14)
        manager = VirtualNodeManager.adopt(system)
        with pytest.raises(LoadBalanceError):
            manager.split_virtual(999999999)


class TestCombinedPipeline:
    def test_join_plus_runtime_beats_either(self):
        """Figure 19's story: join-LB helps, join-LB + runtime LB is best."""
        base = skewed_system(n_nodes=40, seed=15)
        base_cov = coefficient_of_variation(list(base.node_loads().values()))

        join_only = skewed_system(n_nodes=10, seed=15)
        grow_with_join_lb(join_only, 40, samples=8, rng=16)
        join_cov = coefficient_of_variation(list(join_only.node_loads().values()))

        combined = skewed_system(n_nodes=10, seed=15)
        grow_with_join_lb(combined, 40, samples=8, rng=16)
        run_neighbor_balancing(combined, rounds=8, threshold=1.3)
        combined_cov = coefficient_of_variation(list(combined.node_loads().values()))

        assert join_cov < base_cov
        assert combined_cov < join_cov
