"""Tests for query regions (intervals, boxes, unions)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError
from repro.sfc.regions import Box, Containment, Interval, Region


class TestInterval:
    def test_contains(self):
        iv = Interval(2, 5)
        assert iv.contains(2) and iv.contains(5) and iv.contains(3)
        assert not iv.contains(1) and not iv.contains(6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 2)

    def test_point_interval(self):
        iv = Interval(3, 3)
        assert iv.contains(3)
        assert iv.width == 1

    def test_overlaps(self):
        iv = Interval(2, 5)
        assert iv.overlaps(5, 9)
        assert iv.overlaps(0, 2)
        assert iv.overlaps(3, 4)
        assert not iv.overlaps(6, 9)
        assert not iv.overlaps(0, 1)

    def test_contains_interval(self):
        iv = Interval(2, 5)
        assert iv.contains_interval(2, 5)
        assert iv.contains_interval(3, 4)
        assert not iv.contains_interval(1, 5)
        assert not iv.contains_interval(2, 6)

    @given(
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(0, 100),
        st.integers(0, 100),
    )
    def test_overlap_symmetric_with_containment(self, a, b, c, d):
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        iv = Interval(lo1, hi1)
        if iv.contains_interval(lo2, hi2):
            assert iv.overlaps(lo2, hi2)


class TestBox:
    def test_from_bounds(self):
        box = Box.from_bounds([(0, 3), (2, 5)])
        assert box.dims == 2
        assert box.volume == 16

    def test_contains_point(self):
        box = Box.from_bounds([(0, 3), (2, 5)])
        assert box.contains_point((0, 2))
        assert box.contains_point((3, 5))
        assert not box.contains_point((4, 3))

    def test_contains_point_wrong_dims(self):
        box = Box.from_bounds([(0, 3)])
        with pytest.raises(DimensionMismatchError):
            box.contains_point((1, 2))

    def test_classify_cell(self):
        box = Box.from_bounds([(2, 5), (2, 5)])
        assert box.classify_cell((3, 3), (4, 4)) is Containment.FULL
        assert box.classify_cell((0, 0), (1, 1)) is Containment.DISJOINT
        assert box.classify_cell((0, 0), (3, 3)) is Containment.PARTIAL
        assert box.classify_cell((2, 2), (5, 5)) is Containment.FULL

    def test_classify_cell_touching_edge(self):
        box = Box.from_bounds([(2, 5)])
        assert box.classify_cell((5,), (6,)) is Containment.PARTIAL
        assert box.classify_cell((6,), (7,)) is Containment.DISJOINT


class TestRegion:
    def test_needs_boxes(self):
        with pytest.raises(ValueError):
            Region(())

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Region((Box.from_bounds([(0, 1)]), Box.from_bounds([(0, 1), (0, 1)])))

    def test_union_contains(self):
        region = Region(
            (Box.from_bounds([(0, 1), (0, 1)]), Box.from_bounds([(6, 7), (6, 7)]))
        )
        assert region.contains_point((0, 0))
        assert region.contains_point((7, 7))
        assert not region.contains_point((3, 3))

    def test_union_classify(self):
        region = Region(
            (Box.from_bounds([(0, 3), (0, 3)]), Box.from_bounds([(4, 7), (4, 7)]))
        )
        assert region.classify_cell((0, 0), (3, 3)) is Containment.FULL
        assert region.classify_cell((4, 4), (7, 7)) is Containment.FULL
        assert region.classify_cell((0, 4), (3, 7)) is Containment.DISJOINT
        assert region.classify_cell((0, 0), (7, 7)) is Containment.PARTIAL

    def test_conservative_union_classification_is_safe(self):
        """A cell covered only jointly by two boxes is PARTIAL (refined, not dropped)."""
        region = Region((Box.from_bounds([(0, 3)]), Box.from_bounds([(4, 7)])))
        assert region.classify_cell((0,), (7,)) is Containment.PARTIAL

    def test_volume_upper_bound(self):
        region = Region(
            (Box.from_bounds([(0, 1), (0, 1)]), Box.from_bounds([(2, 3), (2, 3)]))
        )
        assert region.volume_upper_bound == 8


class TestClassificationConsistency:
    @given(st.data())
    def test_classification_agrees_with_pointwise(self, data):
        side = 16
        lo1 = data.draw(st.integers(0, side - 1))
        hi1 = data.draw(st.integers(lo1, side - 1))
        lo2 = data.draw(st.integers(0, side - 1))
        hi2 = data.draw(st.integers(lo2, side - 1))
        region = Region.from_bounds([(lo1, hi1), (lo2, hi2)])
        clo1 = data.draw(st.integers(0, side - 2))
        chi1 = data.draw(st.integers(clo1, side - 1))
        clo2 = data.draw(st.integers(0, side - 2))
        chi2 = data.draw(st.integers(clo2, side - 1))
        relation = region.classify_cell((clo1, clo2), (chi1, chi2))
        points_inside = [
            region.contains_point((x, y))
            for x in range(clo1, chi1 + 1)
            for y in range(clo2, chi2 + 1)
        ]
        if relation is Containment.FULL:
            assert all(points_inside)
        elif relation is Containment.DISJOINT:
            assert not any(points_inside)
        else:
            assert any(points_inside) and not all(points_inside)
