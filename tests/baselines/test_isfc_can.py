"""Tests for the inverse-SFC-over-CAN baseline (Andrzejak & Xu)."""

import numpy as np
import pytest

from repro.baselines.isfc_can import InverseSfcCanSystem
from repro.errors import KeywordError
from repro.keywords.dimensions import NumericDimension


@pytest.fixture(scope="module")
def system():
    attr = NumericDimension("memory", 0, 4096)
    sys_ = InverseSfcCanSystem(attr, n_nodes=40, bits=12, can_dims=2, rng=0)
    rng = np.random.default_rng(1)
    values = rng.uniform(0, 4096, size=500)
    for v in values:
        sys_.publish(float(v), payload=round(float(v), 1))
    return sys_, sorted(float(v) for v in values)


class TestPublish:
    def test_placement_at_image_owner(self):
        attr = NumericDimension("x", 0, 100)
        sys_ = InverseSfcCanSystem(attr, n_nodes=10, bits=10, rng=2)
        node = sys_.publish(50.0)
        assert node == sys_.overlay.owner(sys_.index_of(50.0))


class TestRangeQueries:
    def test_full_recall(self, system):
        sys_, values = system
        matches, stats = sys_.query_range(1000, 2000)
        want = [v for v in values if 1000 <= v <= 2000]
        assert sorted(v for v, _ in matches) == want
        assert stats.matches == len(want)

    def test_open_ended(self, system):
        sys_, values = system
        matches, _ = sys_.query_range(None, 500)
        assert sorted(v for v, _ in matches) == [v for v in values if v <= 500]
        matches, _ = sys_.query_range(3500, None)
        assert sorted(v for v, _ in matches) == [v for v in values if v >= 3500]

    def test_whole_domain(self, system):
        sys_, values = system
        matches, stats = sys_.query_range(None, None)
        assert len(matches) == len(values)
        assert stats.nodes_visited == len(sys_)

    def test_narrow_range_visits_few_nodes(self, system):
        sys_, _ = system
        _, narrow = sys_.query_range(2000, 2010)
        _, wide = sys_.query_range(0, 4096)
        assert narrow.nodes_visited < wide.nodes_visited

    def test_empty_range_rejected(self, system):
        sys_, _ = system
        with pytest.raises(KeywordError):
            sys_.query_range(100, 50)

    def test_point_range(self, system):
        sys_, values = system
        target = values[len(values) // 2]
        matches, _ = sys_.query_range(target, target)
        assert target in [v for v, _ in matches]

    def test_costs_scale_with_range_image(self, system):
        sys_, _ = system
        _, small = sys_.query_range(100, 200)
        _, large = sys_.query_range(100, 3000)
        assert small.messages <= large.messages

    def test_data_nodes_subset_of_visited(self, system):
        sys_, _ = system
        _, stats = sys_.query_range(500, 1500)
        assert stats.data_nodes <= stats.nodes_visited


class TestAgainstSquid:
    def test_single_attribute_range_parity(self, system):
        """On one attribute both systems return the complete answer."""
        from repro import KeywordSpace, SquidSystem

        sys_, values = system
        space = KeywordSpace([NumericDimension("memory", 0, 4096)], bits=12)
        squid = SquidSystem.create(space, n_nodes=len(sys_.overlay), seed=11)
        squid.publish_many([(v,) for v in values])
        matches, _ = sys_.query_range(1000.0, 1400.0)
        assert squid.query("(1000.0-1400.0)", rng=12).match_count == len(matches) > 0
