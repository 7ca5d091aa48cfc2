"""Tests for keyword-space dimension types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeywordError
from repro.keywords.dimensions import (
    CategoricalDimension,
    NumericDimension,
    WordDimension,
)

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12)


class TestWordDimension:
    def setup_method(self):
        self.dim = WordDimension("kw")

    def test_validate_lowercases(self):
        assert self.dim.validate("CompUter") == "computer"

    def test_validate_rejects_empty(self):
        with pytest.raises(KeywordError):
            self.dim.validate("")

    def test_validate_rejects_non_alpha(self):
        with pytest.raises(KeywordError):
            self.dim.validate("comp2ter")

    def test_validate_rejects_non_string(self):
        with pytest.raises(KeywordError):
            self.dim.validate(42)

    def test_encode_extremes(self):
        bits = 10
        assert self.dim.encode("a", bits) == 0
        assert self.dim.encode("z", bits) == (25 << bits) // 26

    def test_encode_in_range(self):
        bits = 16
        for word in ("a", "computer", "zzzzzzzzzz", "network"):
            coord = self.dim.encode(word, bits)
            assert 0 <= coord < (1 << bits)

    @given(words, words)
    @settings(max_examples=200)
    def test_lexicographic_monotone(self, w1, w2):
        """Order of words is weakly preserved by the coordinate mapping."""
        bits = 20
        c1 = self.dim.encode(w1, bits)
        c2 = self.dim.encode(w2, bits)
        if w1 < w2:
            assert c1 <= c2
        elif w1 > w2:
            assert c1 >= c2
        else:
            assert c1 == c2

    @given(words, st.integers(min_value=1, max_value=8))
    @settings(max_examples=200)
    def test_prefix_interval_covers_extensions(self, word, plen):
        """Every word extending a prefix must land inside the prefix interval."""
        bits = 18
        prefix = word[:plen]
        low, high = self.dim.interval_for_prefix(prefix, bits)
        # The word itself extends its prefix.
        coord = self.dim.encode(word[: plen] + word, bits)
        assert low <= coord <= high

    @given(words)
    def test_exact_interval_covers_word(self, word):
        bits = 16
        low, high = self.dim.interval_for_exact(word, bits)
        assert low <= self.dim.encode(word, bits) <= high

    def test_shorter_prefix_wider_interval(self):
        bits = 20
        lo1, hi1 = self.dim.interval_for_prefix("c", bits)
        lo2, hi2 = self.dim.interval_for_prefix("co", bits)
        lo3, hi3 = self.dim.interval_for_prefix("com", bits)
        assert lo1 <= lo2 <= lo3
        assert hi3 <= hi2 <= hi1
        assert (hi1 - lo1) > (hi2 - lo2) > (hi3 - lo3)

    def test_disjoint_prefixes_nearly_disjoint_intervals(self):
        """Adjacent prefixes may share at most the single boundary coordinate
        (quantization); the exactness post-filter removes the spillover."""
        bits = 20
        _, hi_c = self.dim.interval_for_prefix("c", bits)
        lo_d, hi_d = self.dim.interval_for_prefix("d", bits)
        assert hi_c <= lo_d
        # And the bulk of the intervals never overlaps.
        lo_c, _ = self.dim.interval_for_prefix("c", bits)
        assert hi_c - lo_c > 1000 and hi_d - lo_d > 1000

    def test_significant_chars(self):
        # 26**t >= 2**bits  =>  t >= bits / log2(26) (~4.7 bits per char).
        assert WordDimension.significant_chars(5) == 2
        assert WordDimension.significant_chars(20) == 5
        assert WordDimension.significant_chars(1) == 1

    def test_matchers(self):
        assert self.dim.matches_exact("Computer", "computer")
        assert not self.dim.matches_exact("computer", "computation")
        assert self.dim.matches_prefix("computer", "comp")
        assert not self.dim.matches_prefix("computer", "net")


class TestNumericDimension:
    def setup_method(self):
        self.dim = NumericDimension("memory", 0, 1024)

    def test_construction_rejects_bad_bounds(self):
        with pytest.raises(KeywordError):
            NumericDimension("x", 10, 10)

    def test_log_scale_needs_positive_min(self):
        with pytest.raises(KeywordError):
            NumericDimension("x", 0, 10, log_scale=True)

    def test_validate_range(self):
        assert self.dim.validate(512) == 512.0
        with pytest.raises(KeywordError):
            self.dim.validate(-1)
        with pytest.raises(KeywordError):
            self.dim.validate(2000)
        with pytest.raises(KeywordError):
            self.dim.validate("abc")
        with pytest.raises(KeywordError):
            self.dim.validate(float("nan"))

    def test_encode_extremes(self):
        bits = 8
        assert self.dim.encode(0, bits) == 0
        assert self.dim.encode(1024, bits) == 255

    @given(st.floats(min_value=0, max_value=1024), st.floats(min_value=0, max_value=1024))
    @settings(max_examples=200)
    def test_monotone(self, v1, v2):
        bits = 12
        c1, c2 = self.dim.encode(v1, bits), self.dim.encode(v2, bits)
        if v1 < v2:
            assert c1 <= c2

    @given(
        st.floats(min_value=0, max_value=1024),
        st.floats(min_value=0, max_value=1024),
        st.floats(min_value=0, max_value=1024),
    )
    @settings(max_examples=200)
    def test_range_interval_covers_members(self, a, b, v):
        bits = 12
        low, high = sorted((a, b))
        if not (low <= v <= high):
            return
        ilo, ihi = self.dim.interval_for_range(low, high, bits)
        assert ilo <= self.dim.encode(v, bits) <= ihi

    def test_open_ended_ranges(self):
        bits = 10
        lo, hi = self.dim.interval_for_range(None, 512, bits)
        assert lo == 0
        lo, hi = self.dim.interval_for_range(512, None, bits)
        assert hi == (1 << bits) - 1

    def test_empty_range_rejected(self):
        with pytest.raises(KeywordError):
            self.dim.interval_for_range(512, 256, 10)

    def test_matches_range(self):
        assert self.dim.matches_range(300, 256, 512)
        assert not self.dim.matches_range(100, 256, 512)
        assert self.dim.matches_range(1000, 256, None)
        assert self.dim.matches_range(10, None, 256)

    def test_log_scale_monotone(self):
        dim = NumericDimension("freq", 1, 4096, log_scale=True)
        bits = 10
        coords = [dim.encode(v, bits) for v in (1, 2, 8, 100, 4096)]
        assert coords == sorted(coords)
        assert coords[0] == 0
        assert coords[-1] == (1 << bits) - 1

    def test_log_scale_spreads_small_values(self):
        """Log scale gives small values more resolution than linear."""
        lin = NumericDimension("x", 1, 2**20)
        log = NumericDimension("x", 1, 2**20, log_scale=True)
        bits = 16
        lin_gap = lin.encode(2, bits) - lin.encode(1, bits)
        log_gap = log.encode(2, bits) - log.encode(1, bits)
        assert log_gap > lin_gap


class TestCategoricalDimension:
    def setup_method(self):
        self.dim = CategoricalDimension("os", ["linux", "macos", "windows"])

    def test_construction_rejects_empty(self):
        with pytest.raises(KeywordError):
            CategoricalDimension("os", [])

    def test_construction_rejects_duplicates(self):
        with pytest.raises(KeywordError):
            CategoricalDimension("os", ["a", "a"])

    def test_validate(self):
        assert self.dim.validate("linux") == "linux"
        with pytest.raises(KeywordError):
            self.dim.validate("beos")

    def test_encode_ordered(self):
        bits = 8
        coords = [self.dim.encode(c, bits) for c in self.dim.categories]
        assert coords == sorted(coords)
        assert len(set(coords)) == 3

    def test_interval_covers_category(self):
        bits = 8
        for cat in self.dim.categories:
            lo, hi = self.dim.interval_for_exact(cat, bits)
            assert lo <= self.dim.encode(cat, bits) <= hi

    def test_intervals_disjoint(self):
        bits = 8
        intervals = [self.dim.interval_for_exact(c, bits) for c in self.dim.categories]
        for (l1, h1), (l2, h2) in zip(intervals, intervals[1:]):
            assert h1 < l2

    def test_matches(self):
        assert self.dim.matches_exact("linux", "linux")
        assert not self.dim.matches_exact("linux", "macos")

    @pytest.mark.parametrize("bad", [["linux"], {"linux": 1}, {"linux"}])
    def test_unhashable_value_is_a_keyword_error(self, bad):
        with pytest.raises(KeywordError, match="unknown category"):
            self.dim.validate(bad)
        with pytest.raises(KeywordError, match="unknown category"):
            self.dim.encode_column(["linux", bad], 8)


class TestEncodeColumn:
    """A column pass returns what validate and encode return per value."""

    DIMS = [
        WordDimension("kw"),
        NumericDimension("mem", 0, 1000),
        NumericDimension("bw", 1, 10_000, log_scale=True),
        CategoricalDimension("os", ["linux", "macos", "windows"]),
    ]
    VALUES = [
        ["Net", "net", "network", "a", "NET", "zebra"],
        [0, 1000, 1000 / 64, 3 * 1000 / 64, True, 999.999, 500],
        [1, 10_000, 10 ** (4 / 64), 7, 7.0, 9999.5],
        ["windows", "linux", "linux", "macos"],
    ]

    @pytest.mark.parametrize("position", range(4))
    def test_column_is_validate_and_encode_per_value(self, position):
        dim, values = self.DIMS[position], self.VALUES[position]
        normalized, coords = dim.encode_column(values, 6)
        assert normalized == [dim.validate(v) for v in values]
        assert [type(v) for v in normalized] == [type(dim.validate(v)) for v in values]
        assert coords.dtype.name == "int64"
        assert coords.tolist() == [dim.encode(v, 6) for v in values]

    def test_log_column_rounds_like_libm(self):
        """Values on which NumPy's ``log`` and libm's differ in the last bit
        (x86-64, NumPy 2.4), enough to move the coordinate by one."""
        dim = NumericDimension("bw", 1, 10_000, log_scale=True)
        values = [9.017333353397984, 14.16991312112537, 160.35338235804858]
        coords = dim.encode_column(values, 12)[1]
        assert coords.tolist() == [dim.encode(v, 12) for v in values] == [978, 1178, 2258]

    @pytest.mark.parametrize(
        "bad", [float("nan"), -0.5, 1000.5, float("inf"), "big", None, [1]]
    )
    def test_numeric_column_rejects_what_validate_rejects(self, bad):
        dim = NumericDimension("mem", 0, 1000)
        with pytest.raises(KeywordError) as column_error:
            dim.encode_column([5, bad, 7], 6)
        with pytest.raises(KeywordError) as value_error:
            dim.validate(bad)
        assert str(column_error.value) == str(value_error.value)


class TestDimensionName:
    def test_empty_name_rejected(self):
        with pytest.raises(KeywordError):
            WordDimension("")
