"""Property tests: the array-resident resolver ≡ level-by-level refinement.

``resolve_ranges_vec`` (:mod:`repro.sfc.refine_vec`) — what
``resolve_clusters`` runs on every curve that fits ``int64`` — must return
exactly the ranges the refinement kernel produces level by level
(``_resolve_level_by_level``, the wide-curve path, called directly as the
reference), for every curve family, geometry, and region; the level
drivers and the batched entry point ``refine_level`` must equal the
readable per-cluster reference (``tests/sfc/reference_refine.py``) — same
clusters, same piece lists, same run splitting, ``min_index`` clipping,
and FullRange coalescing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SFCError
from repro.sfc import CURVES as CURVE_REGISTRY
from repro.sfc.clusters import (
    Cell,
    Cluster,
    _resolve_level_by_level,
    clusters_at_level,
    count_clusters_per_level,
    refine_cluster,
    refine_level,
    resolve_clusters,
    root_cluster,
)
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.refine_vec import (
    curve_table,
    resolve_ranges_vec,
    supports_vectorized,
)
from repro.sfc.regions import Box, Region
from tests.sfc.reference_refine import reference_refine_cluster

# Every registered family must satisfy scalar ≡ vectorized, so derive the
# sweep from the registry rather than a hand-maintained list.
CURVES = [cls for _, cls in sorted(CURVE_REGISTRY.items())]
GEOMETRIES = [(1, 8), (2, 6), (2, 8), (3, 5), (4, 3)]


def region_strategy(dims: int, order: int, max_boxes: int = 2):
    side = 1 << order

    @st.composite
    def _region(draw):
        n_boxes = draw(st.integers(1, max_boxes))
        boxes = []
        for _ in range(n_boxes):
            bounds = []
            for _ in range(dims):
                a = draw(st.integers(0, side - 1))
                b = draw(st.integers(0, side - 1))
                bounds.append((min(a, b), max(a, b)))
            boxes.append(Box.from_bounds(bounds))
        return Region(tuple(boxes))

    return _region()


def reference_level(curve, clusters, region):
    """One level step with the per-cluster reference (resolved clusters bump)."""
    out = []
    for c in clusters:
        if c.is_resolved:
            out.append(Cluster(level=c.level + 1, pieces=c.pieces))
        else:
            out.extend(reference_refine_cluster(curve, c, region))
    return out


def reference_levels(curve, region, upto):
    """Clusters at levels ``0..upto``, walked with the per-cluster reference."""
    levels = [[root_cluster(curve, region)]]
    for _ in range(upto):
        levels.append(reference_level(curve, levels[-1], region))
    return levels


@pytest.mark.parametrize("curve_cls", CURVES)
@pytest.mark.parametrize("dims,order", GEOMETRIES)
class TestScalarEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_resolve_identical(self, curve_cls, dims, order, data):
        curve = curve_cls(dims, order)
        region = data.draw(region_strategy(dims, order))
        scalar = _resolve_level_by_level(curve, region)
        vectorized = resolve_clusters(curve, region)
        assert scalar == vectorized

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_resolve_capped_identical(self, curve_cls, dims, order, data):
        curve = curve_cls(dims, order)
        region = data.draw(region_strategy(dims, order))
        max_level = data.draw(st.integers(0, order))
        scalar = _resolve_level_by_level(curve, region, max_level)
        vectorized = resolve_clusters(curve, region, max_level=max_level)
        assert scalar == vectorized

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_clusters_at_level_identical(self, curve_cls, dims, order, data):
        """Structural equality: same Cluster values, piece by piece."""
        curve = curve_cls(dims, order)
        region = data.draw(region_strategy(dims, order))
        level = data.draw(st.integers(0, order))
        assert clusters_at_level(curve, region, level) == reference_levels(
            curve, region, level
        )[level]

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_counts_per_level_identical(self, curve_cls, dims, order, data):
        curve = curve_cls(dims, order)
        region = data.draw(region_strategy(dims, order))
        assert count_clusters_per_level(curve, region) == [
            len(level) for level in reference_levels(curve, region, order)
        ]


class TestMinIndexClipping:
    """The engine's trim semantics, batched: ``refine_level`` ≡ reference."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_refine_with_min_index_identical(self, data):
        curve = HilbertCurve(2, 6)
        region = data.draw(region_strategy(2, 6))
        min_index = data.draw(st.integers(0, curve.size - 1))
        root = root_cluster(curve, region)
        # Walk two levels so clusters carry mixed FullRange/Cell pieces.
        level1 = [
            c for c in reference_refine_cluster(curve, root, region)
            if not c.is_resolved
        ]
        expected = [
            out
            for c in level1
            for out in reference_refine_cluster(curve, c, region, min_index)
        ]
        assert refine_level(curve, level1, region, min_index=min_index) == expected


class TestBatchedEntryPoints:
    def test_refine_level_matches_per_cluster(self):
        curve = HilbertCurve(2, 8)
        region = Region.from_bounds([(10, 200), (30, 170)])
        clusters = clusters_at_level(curve, region, 3)
        assert refine_level(curve, clusters, region) == reference_level(
            curve, clusters, region
        )
        assert [
            out for c in clusters for out in refine_cluster(curve, c, region)
        ] == [out for c in clusters for out in reference_refine_cluster(curve, c, region)]

    def test_resolve_ranges_vec_direct(self):
        curve = HilbertCurve(2, 8)
        region = Region.from_bounds([(3, 90), (17, 201)])
        scalar = _resolve_level_by_level(curve, region)
        assert resolve_ranges_vec(curve, region) == scalar

    def test_full_region_resolves_to_whole_curve(self):
        curve = HilbertCurve(2, 8)
        region = Region.from_bounds([(0, curve.side - 1)] * 2)
        assert resolve_ranges_vec(curve, region) == [(0, curve.size - 1)]

    def test_point_region(self):
        curve = HilbertCurve(2, 8)
        region = Region.from_bounds([(7, 7), (101, 101)])
        index = curve.encode((7, 101))
        assert resolve_ranges_vec(curve, region) == [(index, index)]


class TestGating:
    def test_supports_vectorized_tracks_index_width(self):
        assert supports_vectorized(HilbertCurve(2, 10))
        assert not supports_vectorized(HilbertCurve(2, 32))

    def test_wide_curve_raises_from_resolver(self):
        curve = HilbertCurve(2, 32)
        region = Region.from_bounds([(0, 5), (0, 5)])
        with pytest.raises(SFCError):
            resolve_ranges_vec(curve, region)

    def test_wide_curve_falls_back_to_scalar(self):
        """index_bits > 63 must still resolve correctly (scalar fallback)."""
        curve = HilbertCurve(2, 32)
        region = Region.from_bounds([(0, 3), (0, 3)])
        ranges = resolve_clusters(curve, region, max_level=4)
        assert ranges == _resolve_level_by_level(curve, region, 4)

    def test_refine_at_max_order_raises(self):
        curve = HilbertCurve(2, 3)
        region = Region.from_bounds([(0, 3), (0, 3)])
        leaf = Cell(level=3, prefix=0, coords=(0, 0), state=curve.root_state())
        with pytest.raises(SFCError):
            refine_level(curve, [Cluster(level=3, pieces=(leaf,))], region)

class TestCurveTable:
    @pytest.mark.parametrize("curve_cls", CURVES)
    def test_table_matches_children(self, curve_cls):
        curve = curve_cls(2, 4)
        table = curve_table(curve)
        assert table.labels.shape == table.next_ids.shape
        assert table.labels.shape[1] == 1 << curve.dims
        for i, state in enumerate(table.states):
            for rank, (label, child) in enumerate(curve.children(state)):
                assert table.labels[i, rank] == label
                assert table.states[table.next_ids[i, rank]] == child

    def test_table_cached_per_curve(self):
        curve = HilbertCurve(2, 5)
        assert curve_table(curve) is curve_table(curve)

    def test_hilbert_state_count_bound(self):
        curve = HilbertCurve(3, 4)
        table = curve_table(curve)
        assert len(table.states) <= (1 << curve.dims) * curve.dims
        assert np.all(table.next_ids < len(table.states))
