"""Tests for repro.util.stats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    Summary,
    coefficient_of_variation,
    gini_coefficient,
    histogram_counts,
    imbalance_ratio,
    percentiles,
    summarize,
)


class TestSummarize:
    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert s.total == 0.0

    def test_single_value(self):
        s = summarize([5.0])
        assert s.count == 1
        assert s.mean == 5.0
        assert s.minimum == 5.0
        assert s.maximum == 5.0

    def test_known_values(self):
        s = summarize([1, 2, 3, 4])
        assert s.total == 10.0
        assert s.mean == 2.5
        assert s.minimum == 1.0
        assert s.maximum == 4.0

    def test_as_row_keys(self):
        row = summarize([1, 2]).as_row()
        assert set(row) == {"count", "total", "mean", "std", "min", "p50", "p90", "p99", "max"}


class TestGini:
    def test_even_distribution_is_zero(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-12)

    def test_fully_concentrated(self):
        # One holder of everything among n -> gini = (n-1)/n.
        g = gini_coefficient([0, 0, 0, 100])
        assert g == pytest.approx(0.75, abs=1e-12)

    def test_empty_and_zero(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0, 0]) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gini_coefficient([-1, 2])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_bounded(self, values):
        g = gini_coefficient(values)
        assert -1e-9 <= g <= 1.0

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=30),
        st.floats(min_value=0.1, max_value=10),
    )
    def test_scale_invariant(self, values, factor):
        a = gini_coefficient(values)
        b = gini_coefficient([v * factor for v in values])
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


class TestImbalance:
    def test_even(self):
        assert imbalance_ratio([3, 3, 3]) == 1.0

    def test_uneven(self):
        assert imbalance_ratio([1, 1, 4]) == pytest.approx(2.0)

    def test_empty_and_zero(self):
        assert imbalance_ratio([]) == 1.0
        assert imbalance_ratio([0, 0]) == 1.0


class TestCoV:
    def test_even_is_zero(self):
        assert coefficient_of_variation([2, 2, 2]) == 0.0

    def test_empty(self):
        assert coefficient_of_variation([]) == 0.0

    def test_known(self):
        assert coefficient_of_variation([0, 2]) == pytest.approx(1.0)


class TestHistogram:
    def test_counts_sum(self):
        counts = histogram_counts([0.5, 1.5, 2.5], bins=3, low=0, high=3)
        assert counts.tolist() == [1, 1, 1]

    def test_out_of_range_dropped(self):
        counts = histogram_counts([-1, 0.5, 10], bins=2, low=0, high=2)
        assert counts.sum() == 1

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            histogram_counts([1], bins=0, low=0, high=1)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            histogram_counts([1], bins=2, low=1, high=1)


class TestPercentiles:
    def test_default_labels(self):
        out = percentiles(list(range(101)))
        assert set(out) == {"p50", "p95", "p99"}
        assert out["p50"] == 50.0
        assert out["p95"] == 95.0
        assert out["p99"] == 99.0

    def test_custom_quantiles_and_labels(self):
        out = percentiles([1.0, 2.0, 3.0], qs=(0, 100, 99.9))
        assert set(out) == {"p0", "p100", "p99.9"}
        assert out["p0"] == 1.0
        assert out["p100"] == 3.0

    def test_empty_sample_is_nan_not_zero(self):
        out = percentiles([])
        assert set(out) == {"p50", "p95", "p99"}
        # A latency report must not present "no data" as "instant".
        assert all(np.isnan(v) for v in out.values())

    def test_matches_scalar_percentile(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        out = percentiles(values, qs=(50, 90))
        assert out["p50"] == float(np.percentile(values, 50))
        assert out["p90"] == float(np.percentile(values, 90))

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50))
    def test_monotone_in_q(self, values):
        out = percentiles(values, qs=(50, 95, 99))
        assert out["p50"] <= out["p95"] <= out["p99"]
