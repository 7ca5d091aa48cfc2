"""Dimension types of the multidimensional keyword space (paper §3.1).

Each data element is described by a tuple of keywords/attribute values, one
per dimension.  A dimension knows how to map its values onto the discrete
coordinate axis ``[0, 2**bits)`` of the curve *monotonically* (so
lexicographic / numeric locality becomes coordinate locality) and how to turn
the flexible query terms that apply to it (exact value, prefix, range) into
*covering* coordinate intervals.

Coverage vs. exactness: the coordinate mapping quantizes, so an interval may
cover extra values.  That is safe — the query engine post-filters candidate
data elements against the original terms at the data nodes — and necessary,
because e.g. distinct long words can share a coordinate.  The contract each
dimension must satisfy (and that the property tests verify) is::

    term applies to value  =>  encode(value) in interval_for_term(term)

Dimensions are stateless with respect to the curve order: ``bits`` is passed
in by the owning :class:`~repro.keywords.space.KeywordSpace`.
"""

from __future__ import annotations

import math
import string
import sys
from abc import ABC, abstractmethod
from typing import Any

from repro.errors import KeywordError

__all__ = ["Dimension", "WordDimension", "NumericDimension", "CategoricalDimension"]

_ALPHABET = string.ascii_lowercase
_BASE = len(_ALPHABET)


class Dimension(ABC):
    """One axis of the keyword space."""

    def __init__(self, name: str) -> None:
        if not name:
            raise KeywordError("dimension name must be non-empty")
        self.name = name

    @abstractmethod
    def encode(self, value: Any, bits: int) -> int:
        """Deterministic monotone coordinate of ``value`` in ``[0, 2**bits)``."""

    @abstractmethod
    def interval_for_exact(self, value: Any, bits: int) -> tuple[int, int]:
        """Covering coordinate interval for an exact-value term."""

    @abstractmethod
    def validate(self, value: Any) -> Any:
        """Normalize/validate a published value; raise :class:`KeywordError`.

        Every publish path stores what this returns, and the post-filter
        reads it once per candidate, so a dimension over a small vocabulary
        returns *one object per distinct value* (an interned word, the
        declared category): equal keywords at rest are then the same object.
        """

    @abstractmethod
    def matches_exact(self, stored: Any, queried: Any) -> bool:
        """Post-filter: does the stored value satisfy an exact term?"""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class WordDimension(Dimension):
    """Lowercase-alphabetic keyword axis with lexicographic locality.

    A word is read as a base-26 fraction in ``[0, 1)`` (``'a'`` → digit 0,
    ``'z'`` → 25) and quantized to ``bits`` bits.  Only the first
    :meth:`significant_chars` characters influence the coordinate — a fixed
    truncation applied identically at publish and query time, so placement
    and lookup always agree.  Lexicographically close words ("computer",
    "computation") therefore land on nearby coordinates, which is exactly the
    locality the Hilbert mapping preserves.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)

    @staticmethod
    def significant_chars(bits: int) -> int:
        """Smallest ``t`` with ``26**t >= 2**bits``: chars that can matter."""
        return max(1, math.ceil(bits / math.log2(_BASE)))

    def validate(self, value: Any) -> str:
        if not isinstance(value, str):
            raise KeywordError(f"{self.name}: expected a string, got {type(value).__name__}")
        word = value.lower()
        if not word:
            raise KeywordError(f"{self.name}: empty keyword")
        for ch in word:
            if ch not in _ALPHABET:
                raise KeywordError(
                    f"{self.name}: keyword {value!r} contains non-alphabetic character {ch!r}"
                )
        # The interpreter's own table; its entries die with their last
        # reference, so words no store holds any more are not kept alive.
        return sys.intern(word)

    def encode(self, value: Any, bits: int) -> int:
        word = self.validate(value)
        trunc = word[: self.significant_chars(bits)]
        length = len(trunc)
        numerator = _word_value(trunc)
        # floor(frac * 2**bits) computed exactly in integer arithmetic.
        return (numerator << bits) // (_BASE**length)

    def interval_for_exact(self, value: Any, bits: int) -> tuple[int, int]:
        # A whole keyword maps to a single coordinate (the paper's "at most
        # one point in the index space" for fully specified queries): every
        # copy of the word encodes identically, so the point interval covers
        # all true matches; quantization collisions are post-filtered.
        coord = self.encode(value, bits)
        return coord, coord

    def interval_for_prefix(self, prefix: Any, bits: int) -> tuple[int, int]:
        """Covering interval for all words starting with ``prefix``."""
        word = self.validate(prefix)
        trunc = word[: self.significant_chars(bits)]
        length = len(trunc)
        value = _word_value(trunc)
        denominator = _BASE**length
        low = (value << bits) // denominator
        high = (((value + 1) << bits) - 1) // denominator
        return low, min(high, (1 << bits) - 1)

    def matches_exact(self, stored: Any, queried: Any) -> bool:
        return self.validate(stored) == self.validate(queried)

    def matches_prefix(self, stored: Any, prefix: Any) -> bool:
        return self.validate(stored).startswith(self.validate(prefix))


class NumericDimension(Dimension):
    """Numeric attribute axis (e.g. memory MB, CPU MHz, bandwidth Mbps).

    Values in ``[minimum, maximum]`` map linearly (or logarithmically, for
    heavy-tailed attributes) onto the coordinate axis; the mapping is
    monotone so numeric ranges become coordinate intervals — this is what
    gives Squid its range queries over grid resource attributes.
    """

    def __init__(
        self,
        name: str,
        minimum: float,
        maximum: float,
        log_scale: bool = False,
    ) -> None:
        super().__init__(name)
        if not (maximum > minimum):
            raise KeywordError(f"{self.name}: maximum must exceed minimum")
        if log_scale and minimum <= 0:
            raise KeywordError(f"{self.name}: log scale requires a positive minimum")
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self.log_scale = bool(log_scale)

    def validate(self, value: Any) -> float:
        try:
            v = float(value)
        except (TypeError, ValueError):
            raise KeywordError(f"{self.name}: {value!r} is not numeric") from None
        if math.isnan(v):
            raise KeywordError(f"{self.name}: NaN is not a valid value")
        if not (self.minimum <= v <= self.maximum):
            raise KeywordError(
                f"{self.name}: {v} outside [{self.minimum}, {self.maximum}]"
            )
        return v

    def _fraction(self, value: float) -> float:
        if self.log_scale:
            return math.log(value / self.minimum) / math.log(self.maximum / self.minimum)
        return (value - self.minimum) / (self.maximum - self.minimum)

    def encode(self, value: Any, bits: int) -> int:
        v = self.validate(value)
        side = 1 << bits
        coord = int(self._fraction(v) * side)
        return min(coord, side - 1)

    def interval_for_exact(self, value: Any, bits: int) -> tuple[int, int]:
        coord = self.encode(value, bits)
        return coord, coord

    def interval_for_range(
        self, low: float | None, high: float | None, bits: int
    ) -> tuple[int, int]:
        """Covering interval for a numeric range; ``None`` ends are open."""
        lo_v = self.minimum if low is None else self.validate(low)
        hi_v = self.maximum if high is None else self.validate(high)
        if lo_v > hi_v:
            raise KeywordError(f"{self.name}: empty range [{lo_v}, {hi_v}]")
        return self.encode(lo_v, bits), self.encode(hi_v, bits)

    def matches_exact(self, stored: Any, queried: Any) -> bool:
        return self.validate(stored) == self.validate(queried)

    def matches_range(self, stored: Any, low: float | None, high: float | None) -> bool:
        v = self.validate(stored)
        if low is not None and v < float(low):
            return False
        if high is not None and v > float(high):
            return False
        return True


class CategoricalDimension(Dimension):
    """Small closed vocabulary axis (e.g. operating-system type).

    Categories are spread evenly over the coordinate axis in declaration
    order; an exact term covers exactly its category's coordinate band, so
    categorical equality queries touch a single contiguous region.
    """

    def __init__(self, name: str, categories: list[str]) -> None:
        super().__init__(name)
        if not categories:
            raise KeywordError(f"{self.name}: at least one category required")
        if len(set(categories)) != len(categories):
            raise KeywordError(f"{self.name}: duplicate categories")
        self.categories = tuple(categories)
        self._rank = {c: i for i, c in enumerate(self.categories)}

    def validate(self, value: Any) -> str:
        rank = self._rank.get(value)
        if rank is None:
            raise KeywordError(
                f"{self.name}: unknown category {value!r}; expected one of {self.categories}"
            )
        return self.categories[rank]

    def encode(self, value: Any, bits: int) -> int:
        rank = self._rank[self.validate(value)]
        return (rank << bits) // len(self.categories)

    def interval_for_exact(self, value: Any, bits: int) -> tuple[int, int]:
        # Every copy of a category encodes to the same coordinate, so the
        # point interval covers all true matches.
        coord = self.encode(value, bits)
        return coord, coord

    def matches_exact(self, stored: Any, queried: Any) -> bool:
        return self.validate(stored) == self.validate(queried)


def _word_value(word: str) -> int:
    """Integer value of a word as base-26 digits ('a' = 0)."""
    value = 0
    for ch in word:
        value = value * _BASE + (ord(ch) - ord("a"))
    return value
