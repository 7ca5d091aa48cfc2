"""Tests for cluster generation and recursive refinement.

The ground truth is brute force: walk every curve index, test region
membership, and collect maximal runs.  ``resolve_clusters`` must match it
exactly for every curve/region combination.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SFCError
from repro.sfc import CURVES, make_curve
from repro.sfc.clusters import (
    Cell,
    Cluster,
    FullRange,
    clusters_at_level,
    count_clusters_per_level,
    refine_cluster,
    resolve_clusters,
    root_cluster,
)
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.regions import Region, full_region
from repro.sfc.zorder import MortonCurve


def brute_clusters(curve, region):
    """Maximal runs of curve indices whose points lie inside the region."""
    ranges = []
    start = None
    for i in range(curve.size):
        if region.contains_point(curve.decode(i)):
            if start is None:
                start = i
        elif start is not None:
            ranges.append((start, i - 1))
            start = None
    if start is not None:
        ranges.append((start, curve.size - 1))
    return ranges


def random_region(curve, rng):
    bounds = []
    for _ in range(curve.dims):
        a, b = sorted(rng.integers(0, curve.side, size=2))
        bounds.append((int(a), int(b)))
    return Region.from_bounds(bounds)


class TestResolveAgainstBruteForce:
    @pytest.mark.parametrize(
        "curve",
        [HilbertCurve(2, 4), HilbertCurve(3, 3), HilbertCurve(2, 5), MortonCurve(2, 4)],
        ids=["h2o4", "h3o3", "h2o5", "m2o4"],
    )
    def test_random_boxes(self, curve):
        rng = np.random.default_rng(11)
        for _ in range(25):
            region = random_region(curve, rng)
            assert resolve_clusters(curve, region) == brute_clusters(curve, region)

    def test_union_region(self):
        curve = HilbertCurve(2, 4)
        region = Region(
            (
                Region.from_bounds([(0, 3), (0, 3)]).boxes[0],
                Region.from_bounds([(9, 13), (2, 11)]).boxes[0],
            )
        )
        assert resolve_clusters(curve, region) == brute_clusters(curve, region)

    def test_full_space_single_cluster(self):
        curve = HilbertCurve(2, 4)
        assert resolve_clusters(curve, full_region(2, 4)) == [(0, curve.size - 1)]

    def test_single_point_region(self):
        curve = HilbertCurve(3, 3)
        point = (5, 2, 7)
        region = Region.from_bounds([(c, c) for c in point])
        idx = curve.encode(point)
        assert resolve_clusters(curve, region) == [(idx, idx)]

    def test_line_region(self):
        curve = HilbertCurve(2, 4)
        region = Region.from_bounds([(6, 6), (0, 15)])
        assert resolve_clusters(curve, region) == brute_clusters(curve, region)


class TestPaperFigures:
    def test_figure6_refinement_counts(self):
        """Query (011, *) on a 2-D order-3 curve: 1, 2, 4 clusters at levels 1-3."""
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0b011, 0b011), (0, 7)])
        counts = count_clusters_per_level(curve, region)
        assert counts == [1, 1, 2, 4]

    def test_figure5_vertical_stripe_has_multiple_clusters(self):
        """A one-column query region maps to several disjoint curve segments."""
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0b000, 0b000), (0, 7)])
        ranges = resolve_clusters(curve, region)
        assert len(ranges) >= 2
        covered = sum(hi - lo + 1 for lo, hi in ranges)
        assert covered == 8  # 8 cells in the column

    def test_figure5_square_region_single_cluster(self):
        """The (1*, 0*) style square quadrant is one contiguous curve segment."""
        curve = HilbertCurve(2, 3)
        # A quadrant is a level-1 subcube: exactly one cluster by causality.
        region = Region.from_bounds([(4, 7), (0, 3)])
        ranges = resolve_clusters(curve, region)
        assert len(ranges) == 1
        assert ranges[0][1] - ranges[0][0] + 1 == 16


class TestRefineCluster:
    def test_min_index_trims_prefix(self):
        curve = HilbertCurve(2, 4)
        region = full_region(2, 4)
        root = root_cluster(curve, region)
        refined = refine_cluster(curve, root, region, min_index=100)
        assert len(refined) == 1
        assert refined[0].min_index(curve) == 100
        assert refined[0].max_index(curve) == curve.size - 1

    def test_min_index_beyond_cluster_yields_empty(self):
        curve = HilbertCurve(2, 4)
        region = full_region(2, 4)
        root = root_cluster(curve, region)
        assert refine_cluster(curve, root, region, min_index=curve.size) == []

    def test_refine_with_min_index_preserves_coverage(self):
        curve = HilbertCurve(2, 4)
        rng = np.random.default_rng(5)
        for _ in range(20):
            region = random_region(curve, rng)
            cutoff = int(rng.integers(0, curve.size))
            root = root_cluster(curve, region)
            clusters = [root]
            for _ in range(curve.order):
                nxt = []
                for cl in clusters:
                    if cl.is_resolved:
                        nxt.append(cl)
                    else:
                        nxt.extend(refine_cluster(curve, cl, region, min_index=cutoff))
                clusters = nxt
            covered = set()
            for cl in clusters:
                for lo, hi in cl.iter_index_ranges(curve):
                    covered.update(range(lo, hi + 1))
            expected = {
                i
                for lo, hi in brute_clusters(curve, region)
                for i in range(lo, hi + 1)
                if i >= cutoff
            }
            assert expected <= covered
            # Anything extra must be below the cutoff (partial cells keep
            # their full geometry), never outside the region's clusters.
            allowed = {
                i for lo, hi in brute_clusters(curve, region) for i in range(lo, hi + 1)
            }
            assert covered <= allowed | set(range(cutoff))

    def test_cannot_refine_leaf(self):
        curve = HilbertCurve(2, 2)
        leaf = Cell(level=2, prefix=0, coords=(0, 0), state=curve.root_state())
        cluster = Cluster(level=2, pieces=(leaf,))
        with pytest.raises(SFCError):
            refine_cluster(curve, cluster, full_region(2, 2))


def assert_contiguous(curve, cluster):
    """A cluster is one curve segment: its pieces tile [min_index, max_index]."""
    ranges = list(cluster.iter_index_ranges(curve))
    for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
        assert hi1 + 1 == lo2
    assert ranges[0][0] == cluster.min_index(curve)
    assert ranges[-1][1] == cluster.max_index(curve)


class TestClusterProperties:
    def test_pieces_are_contiguous(self):
        curve = HilbertCurve(2, 4)
        rng = np.random.default_rng(13)
        for _ in range(10):
            region = random_region(curve, rng)
            for level in range(curve.order + 1):
                for cluster in clusters_at_level(curve, region, level):
                    assert_contiguous(curve, cluster)
        # Every family, 2-D and 3-D, and the engine's form of the step: a
        # node refines only the part of a cluster at or beyond an index k.
        for family in sorted(CURVES):
            for dims, order in ((2, 4), (3, 3)):
                curve = make_curve(family, dims, order)
                for _ in range(6):
                    region = random_region(curve, rng)
                    clusters = [root_cluster(curve, region)]
                    for _level in range(curve.order):
                        k = int(rng.integers(0, curve.size))
                        refined = []
                        for cluster in clusters:
                            assert_contiguous(curve, cluster)
                            if cluster.is_resolved:
                                continue
                            for child in refine_cluster(curve, cluster, region, min_index=k):
                                assert_contiguous(curve, child)
                                assert child.max_index(curve) >= k
                            refined.extend(refine_cluster(curve, cluster, region))
                        clusters = refined

    def test_clusters_disjoint_and_ordered(self):
        curve = HilbertCurve(2, 4)
        rng = np.random.default_rng(14)
        for _ in range(10):
            region = random_region(curve, rng)
            clusters = clusters_at_level(curve, region, curve.order)
            last_end = -2
            for cl in clusters:
                lo, hi = cl.min_index(curve), cl.max_index(curve)
                assert lo > last_end + 1  # maximality: gaps between clusters
                last_end = hi

    def test_identifier_is_min_index(self):
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(2, 5), (2, 5)])
        for cl in clusters_at_level(curve, region, 2):
            assert cl.identifier(curve) == cl.min_index(curve)

    def test_prefix_is_common_to_range(self):
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0b011, 0b011), (0, 7)])
        for cl in clusters_at_level(curve, region, 2):
            bits, value = cl.prefix(curve)
            lo, hi = cl.min_index(curve), cl.max_index(curve)
            if bits:
                shift = curve.index_bits - bits
                assert lo >> shift == value
                assert hi >> shift == value

    def test_cell_count_and_resolved(self):
        curve = HilbertCurve(2, 3)
        region = full_region(2, 3)
        root = root_cluster(curve, region)
        assert root.is_resolved
        assert root.cell_count() == 0
        narrow = Region.from_bounds([(1, 6), (1, 6)])
        root2 = root_cluster(curve, narrow)
        assert not root2.is_resolved
        assert root2.cell_count() == 1


class TestCountsMonotone:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_counts_never_decrease(self, seed):
        curve = HilbertCurve(2, 4)
        rng = np.random.default_rng(seed)
        region = random_region(curve, rng)
        counts = count_clusters_per_level(curve, region)
        for a, b in zip(counts, counts[1:]):
            assert b >= a
        assert counts[-1] == len(resolve_clusters(curve, region))


class TestFullRangeValidation:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            FullRange(5, 4)
