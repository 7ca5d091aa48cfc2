"""The multidimensional keyword space (paper §3.1).

A :class:`KeywordSpace` binds a tuple of typed dimensions to a common
coordinate resolution (``bits`` per dimension, the curve order) and provides
the two translations the rest of the system is built on:

* **publish path** — ``coordinates(key)``: a data element's keyword tuple →
  a point of the discrete cube (then Hilbert-encoded to its index);
* **query path** — ``region(query)``: a flexible query → the axis-aligned
  coordinate region whose curve clusters drive distributed resolution, plus
  the exactness post-filter applied at data nodes: ``matcher(query)`` binds
  the query once and returns the per-element predicate the engines run over
  *normalized* keys; ``matches(key, query)`` is its validating reference.

Exactness invariants (property-tested): for every key and query,
``matches(key, query)`` implies ``region(query).contains_point(coordinates(key))``
— covering regions never lose true matches; quantization only ever adds
candidates that the post-filter removes — and
``matcher(query)(validate_key(key)) == matches(key, query)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.errors import DimensionMismatchError, KeywordError
from repro.keywords.dimensions import Dimension, NumericDimension, WordDimension
from repro.keywords.query import Exact, NumericRange, Prefix, Query, Term, Wildcard, parse_terms
from repro.sfc.regions import Region

__all__ = ["KeywordSpace", "Key", "BoundQuery"]

Key = tuple[Any, ...]


@dataclass(frozen=True, slots=True)
class BoundQuery:
    """A query already type-checked against one space, with its region.

    Produced by :meth:`KeywordSpace.bind` and accepted wherever a query is
    (:meth:`KeywordSpace.as_query` unwraps it without re-checking), so a
    request that needs the region before it reaches an engine — the
    result-cache probe — parses, checks and covers its query once.
    """

    query: Query
    region: Region


def _equals(position: int, constant: Any) -> Callable[[Key], bool]:
    return lambda key: key[position] == constant


def _starts_with(position: int, prefix: str) -> Callable[[Key], bool]:
    return lambda key: key[position].startswith(prefix)


def _between(position: int, low: float, high: float) -> Callable[[Key], bool]:
    return lambda key: low <= key[position] <= high


def _always(key: Key) -> bool:
    return True


def _both(first: Callable[[Key], bool], second: Callable[[Key], bool]) -> Callable[[Key], bool]:
    return lambda key: first(key) and second(key)


class KeywordSpace:
    """A typed d-dimensional keyword space at ``bits`` bits per dimension."""

    def __init__(self, dimensions: Sequence[Dimension], bits: int) -> None:
        if not dimensions:
            raise KeywordError("a keyword space needs at least one dimension")
        if bits < 1:
            raise KeywordError(f"bits must be >= 1, got {bits}")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise KeywordError(f"duplicate dimension names: {names}")
        self.dimensions = tuple(dimensions)
        self.bits = bits

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        return len(self.dimensions)

    @property
    def side(self) -> int:
        return 1 << self.bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(d.name for d in self.dimensions)
        return f"KeywordSpace([{names}], bits={self.bits})"

    # ------------------------------------------------------------------
    # Publish path
    # ------------------------------------------------------------------
    def validate_key(self, key: Sequence[Any]) -> Key:
        """Normalize a keyword tuple (lowercase words, float numerics)."""
        if len(key) != self.dims:
            raise DimensionMismatchError(self.dims, len(key))
        return tuple(dim.validate(v) for dim, v in zip(self.dimensions, key))

    def pad_key(self, key: Sequence[Any]) -> Key:
        """Extend a partial keyword sequence to full dimensionality.

        The paper associates each data element with "a sequence of one or
        more keywords (up to d keywords)"; an element described by fewer
        keywords than dimensions has them repeated cyclically (the Squid
        convention), so a one-keyword document matches that keyword queried
        on *any* dimension.  Only meaningful when all dimensions share a
        type (e.g. an all-words storage space); validation still applies
        per dimension.
        """
        if not key:
            raise KeywordError("a key needs at least one value")
        if len(key) > self.dims:
            raise DimensionMismatchError(self.dims, len(key))
        values = list(key)
        padded = [values[i % len(values)] for i in range(self.dims)]
        return self.validate_key(padded)

    def coordinates(self, key: Sequence[Any]) -> tuple[int, ...]:
        """Coordinate point of a keyword tuple."""
        if len(key) != self.dims:
            raise DimensionMismatchError(self.dims, len(key))
        return tuple(dim.encode(v, self.bits) for dim, v in zip(self.dimensions, key))

    def coordinates_many(self, keys: Iterable[Sequence[Any]]) -> np.ndarray:
        """Bulk :meth:`coordinates`: returns an ``(N, dims)`` int64 array."""
        rows = [self.coordinates(key) for key in keys]
        if not rows:
            return np.empty((0, self.dims), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def as_query(self, query: "Query | BoundQuery | str | Sequence[Term]") -> Query:
        """Coerce a query given as AST, text, or term sequence; type-check it."""
        if isinstance(query, BoundQuery):
            return query.query
        if isinstance(query, str):
            q = parse_terms(query)
        elif isinstance(query, Query):
            q = query
        else:
            q = Query(tuple(query))
        if q.dims != self.dims:
            raise DimensionMismatchError(self.dims, q.dims)
        for dim, term in zip(self.dimensions, q.terms):
            self._check_term(dim, term)
        return q

    def _check_term(self, dim: Dimension, term: Term) -> None:
        if isinstance(term, Wildcard):
            return
        if isinstance(term, Prefix):
            if not isinstance(dim, WordDimension):
                raise KeywordError(
                    f"{dim.name}: prefix term {term} requires a word dimension"
                )
            dim.validate(term.prefix)
        elif isinstance(term, NumericRange):
            if not isinstance(dim, NumericDimension):
                raise KeywordError(
                    f"{dim.name}: range term {term} requires a numeric dimension"
                )
        elif isinstance(term, Exact):
            dim.validate(term.value)
        else:  # pragma: no cover - defensive
            raise KeywordError(f"unknown term type {term!r}")

    def region(self, query: "Query | str | Sequence[Term]") -> Region:
        """Covering coordinate region of a flexible query."""
        q = self.as_query(query)
        bounds: list[tuple[int, int]] = []
        for dim, term in zip(self.dimensions, q.terms):
            bounds.append(self._interval(dim, term))
        return Region.from_bounds(bounds)

    def _interval(self, dim: Dimension, term: Term) -> tuple[int, int]:
        if isinstance(term, Wildcard):
            return 0, self.side - 1
        if isinstance(term, Prefix):
            assert isinstance(dim, WordDimension)
            return dim.interval_for_prefix(term.prefix, self.bits)
        if isinstance(term, NumericRange):
            assert isinstance(dim, NumericDimension)
            low, high = term.low, term.high
            if low is not None and low < dim.minimum:
                low = dim.minimum
            if high is not None and high > dim.maximum:
                high = dim.maximum
            return dim.interval_for_range(low, high, self.bits)
        assert isinstance(term, Exact)
        return dim.interval_for_exact(term.value, self.bits)

    def bind(self, query: "Query | BoundQuery | str | Sequence[Term]") -> BoundQuery:
        """Type-check a query and build its region, once (see :class:`BoundQuery`)."""
        if isinstance(query, BoundQuery):
            return query
        q = self.as_query(query)
        return BoundQuery(q, self.region(q))

    # ------------------------------------------------------------------
    # Exactness post-filter
    # ------------------------------------------------------------------
    def matcher(
        self, query: "Query | BoundQuery | str | Sequence[Term]"
    ) -> Callable[[Key], bool]:
        """Bind ``query`` once; return the per-element match predicate.

        The query is type-checked here (the errors :meth:`as_query` raises)
        and every term constant is normalized through its dimension, so the
        returned predicate does nothing per key but ``==`` /
        ``str.startswith`` / float comparison on the constrained dimensions.
        Precondition: keys are *normalized* (:meth:`validate_key` /
        :meth:`pad_key`, as every publish entry point does) — the predicate
        neither validates nor normalizes them.  On such keys it agrees with
        :meth:`matches`, the validating reference (property-tested).
        """
        q = self.as_query(query)
        match = None
        for position, (dim, term) in enumerate(zip(self.dimensions, q.terms)):
            test = self._term_test(position, dim, term)
            if test is not None:
                match = test if match is None else _both(match, test)
        return match if match is not None else _always

    @staticmethod
    def _term_test(position: int, dim: Dimension, term: Term) -> Callable[[Key], bool] | None:
        """Predicate of one term on normalized keys; None when it admits all."""
        if isinstance(term, Wildcard):
            return None
        if isinstance(term, Prefix):
            return _starts_with(position, dim.validate(term.prefix))
        if isinstance(term, NumericRange):
            assert isinstance(dim, NumericDimension)
            # Stored values lie in [minimum, maximum], so a bound at or
            # beyond that end (or absent) constrains nothing.
            low, high = dim.minimum, dim.maximum
            if term.low is not None:
                low = max(low, float(term.low))
            if term.high is not None:
                high = min(high, float(term.high))
            if low == dim.minimum and high == dim.maximum:
                return None
            return _between(position, low, high)
        assert isinstance(term, Exact)
        return _equals(position, dim.validate(term.value))

    def matches(
        self, key: Sequence[Any], query: "Query | BoundQuery | str | Sequence[Term]"
    ) -> bool:
        """Does a stored keyword tuple satisfy the query exactly?

        The validating reference of :meth:`matcher`: re-checks the query and
        normalizes the key on every call, so it is the oracle's filter
        (``SquidSystem.brute_force_matches``), not the engines'.
        """
        q = self.as_query(query)
        if len(key) != self.dims:
            raise DimensionMismatchError(self.dims, len(key))
        for dim, value, term in zip(self.dimensions, key, q.terms):
            if not self._term_matches(dim, value, term):
                return False
        return True

    @staticmethod
    def _term_matches(dim: Dimension, value: Any, term: Term) -> bool:
        if isinstance(term, Wildcard):
            return True
        if isinstance(term, Prefix):
            assert isinstance(dim, WordDimension)
            return dim.matches_prefix(value, term.prefix)
        if isinstance(term, NumericRange):
            assert isinstance(dim, NumericDimension)
            return dim.matches_range(value, term.low, term.high)
        assert isinstance(term, Exact)
        return dim.matches_exact(value, term.value)
