"""Tests for the Gnutella-style flooding baseline."""

import pytest

from repro.errors import WorkloadError
from repro.baselines.flooding import FloodingNetwork
from repro.workloads.documents import DocumentWorkload


@pytest.fixture(scope="module")
def network():
    wl = DocumentWorkload.generate(2, 300, rng=0)
    net = FloodingNetwork(wl.space, n_nodes=100, degree=4, rng=1)
    net.publish_many(wl.keys)
    return net, wl


class TestConstruction:
    def test_graph_is_regular_and_connected(self, network):
        net, _ = network
        degrees = {d for _, d in net.graph.degree()}
        assert degrees == {4}

    def test_validation(self):
        wl = DocumentWorkload.generate(2, 10, rng=2)
        with pytest.raises(WorkloadError):
            FloodingNetwork(wl.space, n_nodes=3, degree=4)
        with pytest.raises(WorkloadError):
            FloodingNetwork(wl.space, n_nodes=7, degree=3)  # odd product


class TestSearch:
    def test_unbounded_flood_full_recall(self, network):
        net, wl = network
        query = f"({wl.keys[0][0]}, *)"
        stats = net.query(query, ttl=None, origin=0)
        assert stats.recall == 1.0
        assert stats.nodes_visited == len(net)

    def test_unbounded_flood_message_cost(self, network):
        """Full recall costs about N * degree messages — the paper's point."""
        net, wl = network
        stats = net.query(f"({wl.keys[0][0]}, *)", ttl=None, origin=0)
        assert stats.messages >= len(net) * 4 * 0.9

    def test_ttl_bounds_cost(self, network):
        net, wl = network
        bounded = net.query(f"({wl.keys[0][0]}, *)", ttl=2, origin=0)
        unbounded = net.query(f"({wl.keys[0][0]}, *)", ttl=None, origin=0)
        assert bounded.messages < unbounded.messages
        assert bounded.nodes_visited < unbounded.nodes_visited

    def test_small_ttl_loses_recall_for_rare_keys(self, network):
        net, wl = network
        # A rare key: published once; a 1-hop flood almost surely misses it.
        rare = wl.keys[-1]
        misses = 0
        for origin in range(20):
            stats = net.query(f"({rare[0]}, {rare[1]})", ttl=1, origin=origin)
            if stats.recall < 1.0:
                misses += 1
        assert misses > 10

    def test_no_matches_recall_is_one(self, network):
        net, _ = network
        stats = net.query("(zzzzz, *)", ttl=None, origin=0)
        assert stats.total_matches == 0
        assert stats.recall == 1.0

    def test_deterministic_given_origin(self, network):
        net, wl = network
        q = f"({wl.keys[0][0]}, *)"
        a = net.query(q, ttl=3, origin=5)
        b = net.query(q, ttl=3, origin=5)
        assert (a.messages, a.matches_found) == (b.messages, b.matches_found)


class TestAgainstSquid:
    def test_squid_guarantees_recall_far_below_flooding_cost(self, network):
        """The paper's §2 comparison: flooding needs ~N * degree messages for
        full recall; Squid finds every match for a fraction of that."""
        from repro import SquidSystem
        from repro.workloads.queries import q1_queries

        net, wl = network
        squid = SquidSystem.create(wl.space, n_nodes=len(net), seed=2)
        squid.publish_many(wl.keys)
        for query in q1_queries(wl, count=5, rng=1):
            result = squid.query(query, rng=4)
            assert result.match_count == len(squid.brute_force_matches(query)) > 0
            assert result.stats.messages < net.query(query, ttl=None).messages / 2
