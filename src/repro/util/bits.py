"""Bit-manipulation primitives used by the space-filling-curve machinery.

These helpers operate on arbitrary-precision Python integers so curves of any
dimensionality/order are supported; the vectorized NumPy fast path lives in
:mod:`repro.sfc.hilbert_vec` and mirrors the same definitions.

Conventions
-----------
* ``width``-bit values are unsigned and live in ``[0, 2**width)``.
* Rotations are *cyclic within the low ``width`` bits*; bits above ``width``
  must be zero on input and are zero on output.
* Bit ``i`` of a coordinate label refers to dimension ``i`` (LSB = dim 0),
  matching the Hamilton compact-Hilbert formulation used in
  :mod:`repro.sfc.hilbert`.
"""

from __future__ import annotations

__all__ = [
    "bit_mask",
    "gray_encode",
    "gray_decode",
    "rotate_left",
    "rotate_right",
    "trailing_set_bits",
]


def bit_mask(width: int) -> int:
    """Return a mask with the low ``width`` bits set.

    >>> bin(bit_mask(4))
    '0b1111'
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def gray_encode(value: int) -> int:
    """Binary-reflected Gray code of ``value``.

    >>> [gray_encode(i) for i in range(4)]
    [0, 1, 3, 2]
    """
    if value < 0:
        raise ValueError("gray_encode requires a non-negative integer")
    return value ^ (value >> 1)


def gray_decode(code: int) -> int:
    """Inverse of :func:`gray_encode`.

    Implemented as a prefix-XOR with logarithmic number of shifts.
    """
    if code < 0:
        raise ValueError("gray_decode requires a non-negative integer")
    value = code
    shift = 1
    # Prefix XOR of the *accumulated* value: doubling shift converges in
    # O(log bits) steps because each pass folds in twice as many bits.
    while (value >> shift) > 0:
        value ^= value >> shift
        shift <<= 1
    return value


def rotate_left(value: int, count: int, width: int) -> int:
    """Cyclically rotate the low ``width`` bits of ``value`` left by ``count``."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if value >> width:
        raise ValueError(f"value {value:#x} does not fit in {width} bits")
    count %= width
    if count == 0:
        return value
    mask = bit_mask(width)
    return ((value << count) | (value >> (width - count))) & mask


def rotate_right(value: int, count: int, width: int) -> int:
    """Cyclically rotate the low ``width`` bits of ``value`` right by ``count``."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return rotate_left(value, width - (count % width), width)


def trailing_set_bits(value: int) -> int:
    """Number of consecutive 1-bits at the least-significant end.

    >>> trailing_set_bits(0b0111)
    3
    >>> trailing_set_bits(0b0100)
    0
    """
    if value < 0:
        raise ValueError("trailing_set_bits requires a non-negative integer")
    count = 0
    while value & 1:
        count += 1
        value >>= 1
    return count
