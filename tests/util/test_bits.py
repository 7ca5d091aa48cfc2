"""Unit and property tests for repro.util.bits."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import (
    bit_mask,
    gray_decode,
    gray_encode,
    rotate_left,
    rotate_right,
    trailing_set_bits,
)


class TestBitMask:
    def test_zero_width(self):
        assert bit_mask(0) == 0

    def test_small_widths(self):
        assert bit_mask(1) == 0b1
        assert bit_mask(4) == 0b1111
        assert bit_mask(8) == 0xFF

    def test_large_width(self):
        assert bit_mask(100) == (1 << 100) - 1

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            bit_mask(-1)


class TestGrayCode:
    def test_known_sequence(self):
        assert [gray_encode(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_decode_known(self):
        assert gray_decode(0b1100) == 0b1000

    @given(st.integers(min_value=0, max_value=2**70))
    def test_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @given(st.integers(min_value=0, max_value=2**70))
    def test_encode_roundtrip(self, value):
        assert gray_encode(gray_decode(value)) == value

    @given(st.integers(min_value=0, max_value=2**32))
    def test_adjacent_codes_differ_one_bit(self, value):
        diff = gray_encode(value) ^ gray_encode(value + 1)
        assert bin(diff).count("1") == 1

    @given(st.integers(min_value=0, max_value=2**32))
    def test_step_flips_trailing_set_bit_position(self, value):
        # gc(i) ^ gc(i+1) == 1 << tsb(i): the identity the Hilbert state
        # machine's direction function relies on.
        diff = gray_encode(value) ^ gray_encode(value + 1)
        assert diff == 1 << trailing_set_bits(value)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            gray_encode(-1)
        with pytest.raises(ValueError):
            gray_decode(-1)


class TestRotations:
    def test_rotate_left_basic(self):
        assert rotate_left(0b0001, 1, 4) == 0b0010
        assert rotate_left(0b1000, 1, 4) == 0b0001

    def test_rotate_right_basic(self):
        assert rotate_right(0b0001, 1, 4) == 0b1000
        assert rotate_right(0b0010, 1, 4) == 0b0001

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda w: st.tuples(
                st.integers(min_value=0, max_value=(1 << w) - 1),
                st.integers(min_value=0, max_value=64),
                st.just(w),
            )
        )
    )
    def test_left_right_inverse(self, args):
        value, count, width = args
        assert rotate_right(rotate_left(value, count, width), count, width) == value

    @given(
        st.integers(min_value=1, max_value=16).flatmap(
            lambda w: st.tuples(
                st.integers(min_value=0, max_value=(1 << w) - 1), st.just(w)
            )
        )
    )
    def test_full_rotation_identity(self, args):
        value, width = args
        assert rotate_left(value, width, width) == value

    def test_rotation_preserves_popcount(self):
        for value in range(16):
            for count in range(8):
                assert bin(rotate_left(value, count, 4)).count("1") == bin(value).count("1")

    def test_value_too_wide_raises(self):
        with pytest.raises(ValueError):
            rotate_left(0b10000, 1, 4)

    def test_zero_width_raises(self):
        with pytest.raises(ValueError):
            rotate_left(0, 1, 0)


class TestTrailingBits:
    def test_trailing_set(self):
        assert trailing_set_bits(0) == 0
        assert trailing_set_bits(0b0111) == 3
        assert trailing_set_bits(0b1011) == 2
        assert trailing_set_bits(0b1000) == 0
