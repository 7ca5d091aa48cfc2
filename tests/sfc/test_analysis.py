"""Tests for SFC clustering analytics."""

import numpy as np
import pytest

from repro.errors import ConfigError, DimensionMismatchError
from repro.sfc import CURVES, GrayCurve, HilbertCurve, MortonCurve, Region, make_curve
from repro.sfc.analysis import (
    average_cluster_count,
    cluster_stats,
    random_box_region,
)


class TestClusterStats:
    def test_single_cluster(self):
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0, 7), (0, 7)])
        stats = cluster_stats(curve, region)
        assert stats.cluster_count == 1
        assert stats.covered_indices == 64
        assert stats.largest_cluster == 64

    def test_column_region(self):
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0, 0), (0, 7)])
        stats = cluster_stats(curve, region)
        assert stats.covered_indices == 8
        assert stats.cluster_count >= 2
        assert stats.smallest_cluster >= 1

    def test_point_region(self):
        """Degenerate zero-width box: exactly one single-cell cluster."""
        curve = HilbertCurve(2, 4)
        region = Region.from_bounds([(5, 5), (9, 9)])
        stats = cluster_stats(curve, region)
        assert stats.cluster_count == 1
        assert stats.covered_indices == 1
        assert stats.largest_cluster == 1

    def test_full_space_region(self):
        """The whole cube is one cluster for every family."""
        for name in sorted(CURVES):
            curve = make_curve(name, 2, 4)
            region = Region.from_bounds([(0, curve.side - 1)] * 2)
            stats = cluster_stats(curve, region)
            assert stats.cluster_count == 1
            assert stats.covered_indices == curve.size

    def test_dims_mismatch_raises(self):
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0, 1), (0, 1), (0, 1)])
        with pytest.raises(DimensionMismatchError):
            cluster_stats(curve, region)


class TestRandomBoxRegion:
    def test_extent_respected(self):
        curve = HilbertCurve(2, 4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            region = random_box_region(curve, 4, rng)
            box = region.boxes[0]
            for iv in box.intervals:
                assert iv.width == 4
                assert 0 <= iv.low and iv.high < curve.side

    def test_rejects_bad_extent(self):
        curve = HilbertCurve(2, 4)
        with pytest.raises(ValueError):
            random_box_region(curve, 0)
        with pytest.raises(ValueError):
            random_box_region(curve, curve.side + 1)

    def test_rejects_non_integer_extent(self):
        curve = HilbertCurve(2, 4)
        with pytest.raises(ValueError):
            random_box_region(curve, 2.5)
        with pytest.raises(ValueError):
            random_box_region(curve, True)

    def test_degenerate_extents(self):
        """extent=1 (point boxes) and extent=side (full space) both work."""
        curve = HilbertCurve(2, 3)
        rng = np.random.default_rng(3)
        point = random_box_region(curve, 1, rng)
        assert all(iv.width == 1 for iv in point.boxes[0].intervals)
        assert cluster_stats(curve, point).covered_indices == 1
        full = random_box_region(curve, curve.side, rng)
        assert cluster_stats(curve, full).covered_indices == curve.size


class TestHilbertVsMorton:
    def test_hilbert_fewer_clusters(self):
        """The clustering claim: Hilbert decomposes boxes into fewer segments
        than Z-order, with Gray coding in between (Moon et al.)."""
        h = HilbertCurve(2, 6)
        g = GrayCurve(2, 6)
        m = MortonCurve(2, 6)
        h_count = average_cluster_count(h, extent=8, samples=40, rng=1)
        g_count = average_cluster_count(g, extent=8, samples=40, rng=1)
        m_count = average_cluster_count(m, extent=8, samples=40, rng=1)
        assert h_count < m_count
        assert h_count <= g_count <= m_count

class TestMakeCurve:
    def test_registry(self):
        assert isinstance(make_curve("hilbert", 2, 3), HilbertCurve)
        assert isinstance(make_curve("zorder", 2, 3), MortonCurve)

    def test_unknown(self):
        with pytest.raises(ConfigError) as exc:
            make_curve("peano", 2, 3)
        # The message must name the valid families, like the store registry.
        for name in sorted(CURVES):
            assert name in str(exc.value)
