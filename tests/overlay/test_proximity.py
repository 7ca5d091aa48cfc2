"""Tests for proximity neighbor selection (geographic-locality extension)."""

import numpy as np
import pytest

from repro.errors import NodeNotFoundError, OverlayError
from repro.overlay.chord import ChordRing
from repro.overlay.proximity import LatencyModel, ProximityChordRing


def build_pair(n_nodes=200, bits=16, seed=0, candidates=8):
    """A plain ring and a PNS ring over the same ids and latency model."""
    plain = ChordRing.with_random_ids(bits, n_nodes, rng=seed)
    ids = plain.node_ids()
    model = LatencyModel.random(ids, rng=seed + 1)
    pns = ProximityChordRing.build_with_model(
        bits, ids, model=model, candidates=candidates
    )
    return plain, pns, model


class TestLatencyModel:
    def test_symmetric(self):
        model = LatencyModel.random([1, 2, 3], rng=0)
        assert model.latency(1, 2) == model.latency(2, 1)

    def test_self_latency_zero(self):
        model = LatencyModel.random([1, 2], rng=0)
        assert model.latency(1, 1) == 0.0

    def test_triangle_inequality(self):
        model = LatencyModel.random([1, 2, 3], rng=1)
        assert model.latency(1, 3) <= model.latency(1, 2) + model.latency(2, 3) + 1e-9

    def test_unknown_node(self):
        model = LatencyModel.random([1], rng=0)
        with pytest.raises(NodeNotFoundError):
            model.latency(1, 99)

    def test_path_latency(self):
        model = LatencyModel({1: (0, 0), 2: (3, 4), 3: (3, 0)})
        assert model.path_latency((1, 2, 3)) == pytest.approx(5.0 + 4.0)

    def test_add_node(self):
        model = LatencyModel.random([1], rng=0)
        model.add_node(2, rng=1)
        assert model.latency(1, 2) >= 0


class TestProximityRing:
    def test_candidates_validation(self):
        model = LatencyModel.random([1], rng=0)
        with pytest.raises(OverlayError):
            ProximityChordRing(8, model, candidates=0)

    def test_routing_still_correct(self):
        _, pns, _ = build_pair(n_nodes=150, seed=2)
        rng = np.random.default_rng(3)
        ids = pns.node_ids()
        for _ in range(100):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, pns.space))
            assert pns.route(source, key).destination == pns.owner(key)

    def test_fingers_live_in_valid_intervals(self):
        """Each PNS finger must still 'succeed n by at least 2^i'."""
        from repro.overlay.base import ring_contains_open_closed

        _, pns, _ = build_pair(n_nodes=100, seed=4)
        for node in pns.nodes.values():
            for i, finger in enumerate(node.fingers):
                target = (node.id + (1 << i)) % pns.space
                # finger is at or after the classic target on the ring.
                assert finger == pns.owner(target) or ring_contains_open_closed(
                    target, node.id, finger, pns.space
                )

    def test_hop_counts_comparable(self):
        plain, pns, _ = build_pair(n_nodes=250, seed=5)
        rng = np.random.default_rng(6)
        ids = plain.node_ids()
        plain_hops, pns_hops = [], []
        for _ in range(150):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, plain.space))
            plain_hops.append(plain.route(source, key).hops)
            pns_hops.append(pns.route(source, key).hops)
        # PNS trades a bounded number of extra hops for latency.
        assert np.mean(pns_hops) <= 2.0 * np.mean(plain_hops) + 1

    def test_pns_reduces_latency(self):
        plain, pns, model = build_pair(n_nodes=250, seed=7)
        rng = np.random.default_rng(8)
        ids = plain.node_ids()
        plain_lat, pns_lat = 0.0, 0.0
        for _ in range(200):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, plain.space))
            plain_lat += model.path_latency(plain.route(source, key).path)
            pns_lat += model.path_latency(pns.route(source, key).path)
        assert pns_lat < 0.9 * plain_lat  # a saving worth the extra hops

    def test_route_latency_helper(self):
        _, pns, model = build_pair(n_nodes=50, seed=9)
        ids = pns.node_ids()
        latency, hops = pns.route_latency(ids[0], 12345)
        assert latency >= 0
        assert hops >= 0

    def test_more_candidates_no_worse(self):
        """A larger candidate pool can only improve expected finger latency."""
        plain, pns1, model = build_pair(n_nodes=200, seed=10, candidates=2)
        pns2 = ProximityChordRing.build_with_model(
            16, plain.node_ids(), model=model, candidates=16
        )
        rng = np.random.default_rng(11)
        ids = plain.node_ids()
        lat1 = lat2 = 0.0
        for _ in range(150):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, plain.space))
            lat1 += model.path_latency(pns1.route(source, key).path)
            lat2 += model.path_latency(pns2.route(source, key).path)
        assert lat2 <= lat1 * 1.1  # allow small noise; trend must hold
