"""Tests for the distributed inverted-index baseline."""

import pytest

from repro.baselines.inverted import InvertedIndexSystem, UnsupportedQueryError
from repro.workloads.documents import DocumentWorkload


@pytest.fixture(scope="module")
def system():
    wl = DocumentWorkload.generate(2, 400, rng=0)
    sys_ = InvertedIndexSystem(wl.space, n_nodes=60, rng=1)
    sys_.publish_many(wl.keys)
    return sys_, wl


class TestPublish:
    def test_publish_costs_one_message_per_keyword(self, system):
        sys_, _ = system
        cost = sys_.publish(("alpha", "beta"))
        assert cost == 2


class TestExactQueries:
    def test_single_keyword_exact(self, system):
        sys_, wl = system
        word = wl.keys[0][0]
        matches, stats = sys_.query(f"({word}, *)", origin=sys_.overlay.node_ids()[0])
        want = {k for k in wl.keys if k[0] == word}
        assert set(matches) >= want
        assert {m for m in matches if m[0] == word} == want
        assert stats.matches == len(matches)

    def test_two_keyword_intersection(self, system):
        sys_, wl = system
        key = wl.keys[0]
        matches, stats = sys_.query(f"({key[0]}, {key[1]})")
        assert key in matches
        assert all(m[0] == key[0] and m[1] == key[1] for m in matches)
        assert stats.nodes_contacted <= 2

    def test_costs_are_logarithmic(self, system):
        sys_, wl = system
        key = wl.keys[5]
        _, stats = sys_.query(f"({key[0]}, {key[1]})")
        import math

        assert stats.hops <= 6 * math.log2(len(sys_.overlay)) + 4
        assert stats.messages <= 4

    def test_entries_transferred_positive(self, system):
        sys_, wl = system
        key = wl.keys[10]
        _, stats = sys_.query(f"({key[0]}, {key[1]})")
        assert stats.entries_transferred >= 1


class TestUnsupported:
    def test_prefix_rejected(self, system):
        sys_, _ = system
        with pytest.raises(UnsupportedQueryError):
            sys_.query("(comp*, *)")

    def test_all_wildcards_rejected(self, system):
        sys_, _ = system
        with pytest.raises(UnsupportedQueryError):
            sys_.query("(*, *)")


class TestPositionFiltering:
    def test_keyword_position_respected(self):
        """A keyword appearing in the 'wrong' dimension must not match."""
        wl = DocumentWorkload.generate(2, 10, rng=3)
        sys_ = InvertedIndexSystem(wl.space, n_nodes=10, rng=4)
        sys_.publish(("alpha", "beta"))
        sys_.publish(("beta", "alpha"))
        matches, _ = sys_.query("(alpha, *)")
        assert matches == [("alpha", "beta")]


class TestAgainstSquid:
    def test_same_exact_answer_but_the_index_ships_posting_lists(self, system):
        """Both answer an exact query; Squid retrieves only the elements that
        match all keywords, the inverted index transfers at least that many."""
        from repro import SquidSystem

        sys_, wl = system
        squid = SquidSystem.create(wl.space, n_nodes=len(sys_.overlay), seed=6)
        squid.publish_many(wl.keys)
        key = wl.keys[0]
        query = f"({key[0]}, {key[1]})"
        matches, stats = sys_.query(query)
        assert squid.query(query, rng=8).match_count == len(matches) > 0
        assert stats.entries_transferred >= len(matches)
