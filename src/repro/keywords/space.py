"""The multidimensional keyword space (paper §3.1).

A :class:`KeywordSpace` binds a tuple of typed dimensions to a common
coordinate resolution (``bits`` per dimension, the curve order) and provides
the two translations the rest of the system is built on:

* **publish path** — ``coordinates(key)``: a data element's keyword tuple →
  a point of the discrete cube (then Hilbert-encoded to its index);
* **query path** — ``region(query)``: a flexible query → the axis-aligned
  coordinate region whose curve clusters drive distributed resolution, plus
  the exactness post-filter applied at data nodes: ``keeper(query)`` binds
  the query once and returns the bulk filter the engines run over scanned
  elements (``keep(elements) -> list``), ``matcher(query)`` the same test as
  a per-key predicate; both assume *normalized* keys, and
  ``matches(key, query)`` is their validating reference.

Exactness invariants (property-tested): for every key and query,
``matches(key, query)`` implies ``region(query).contains_point(coordinates(key))``
— covering regions never lose true matches; quantization only ever adds
candidates that the post-filter removes — and
``matcher(query)(validate_key(key)) == matches(key, query)``, with
``keeper(query)`` keeping exactly the elements whose key passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


#: The post-filter's whole vocabulary: one fixed test per constraining term
#: kind over ``{key}[{i}]`` (dimension ``i`` of a normalized key), its
#: constants the parameters ``a{i}`` / ``b{i}``.  A filter's source is these
#: templates, positions and a comprehension — never a query constant.
_TERM_TESTS = {
    Exact: "{key}[{i}] == a{i}",
    Prefix: "{key}[{i}].startswith(a{i})",
    NumericRange: "a{i} <= {key}[{i}] <= b{i}",
}

_Shape = tuple[tuple[int, type], ...]


def _filter_source(shape: _Shape, bulk: bool) -> str:
    """Source of the filter factory for one query shape: a function of the
    constants that returns ``keep(elements) -> list`` (``bulk``) or
    ``match(key) -> bool``."""
    key = "e.key" if bulk else "key"
    test = " and ".join(_TERM_TESTS[kind].format(key=key, i=i) for i, kind in shape)
    constants = ", ".join(
        f"a{i}, b{i}" if kind is NumericRange else f"a{i}" for i, kind in shape
    )
    if bulk:
        condition = f" if {test}" if test else ""
        return f"lambda {constants}: lambda elements: [e for e in elements{condition}]"
    return f"lambda {constants}: lambda key: {test or True}"


@cache
def _filter_factory(shape: _Shape, bulk: bool) -> Callable[..., Callable]:
    """The compiled factory of a shape, cached: an uncached ``compile`` costs
    ~45 us, a tenth of a cheap served request, and a ``dims``-dimensional
    space has at most ``4**dims`` shapes.  Compiled without builtins: the
    source names nothing but its own parameters."""
    return eval(_filter_source(shape, bulk), {"__builtins__": {}})


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
        """Bulk :meth:`coordinates`: returns an ``(N, dims)`` int64 array.

        A word dimension encodes each distinct word once per call: a corpus
        repeats its vocabulary, and a word's encoding walks its characters
        twice.  Other dimensions gain nothing from a memo — a numeric value
        seldom repeats (and ``1``, ``1.0`` and ``True`` would share an
        entry), a category costs one dictionary probe as it is.
        """
        bits, dimensions = self.bits, self.dimensions
        memos = [{} if isinstance(dim, WordDimension) else None for dim in dimensions]
        rows = []
        for key in keys:
            if len(key) != len(dimensions):
                raise DimensionMismatchError(len(dimensions), len(key))
            row = []
            for dim, memo, value in zip(dimensions, memos, key):
                if memo is None or not isinstance(value, str):
                    coord = dim.encode(value, bits)  # no word: encode rejects it
                else:
                    coord = memo.get(value)
                    if coord is None:
                        coord = memo[value] = dim.encode(value, bits)
                row.append(coord)
            rows.append(row)
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
    def keeper(
        self, query: "Query | BoundQuery | str | Sequence[Term]"
    ) -> Callable[[Iterable[Any]], list]:
        """Bind ``query`` once; return the bulk post-filter ``keep``.

        ``keep(elements)`` is the list of the elements (anything with a
        ``.key``) whose key satisfies the query, in their order: one
        comprehension whose condition is the conjunction of the constrained
        terms, compiled once per query *shape* (which dimensions carry which
        kind of term) with this query's constants bound as arguments.  Same
        checking, normalization and precondition as :meth:`matcher`.
        """
        shape, constants = self._bound_terms(query)
        return _filter_factory(shape, True)(*constants)

    def matcher(
        self, query: "Query | BoundQuery | str | Sequence[Term]"
    ) -> Callable[[Key], bool]:
        """Bind ``query`` once; return the per-key match predicate.

        The query is type-checked here (the errors :meth:`as_query` raises)
        and every term constant is normalized through its dimension, so the
        returned predicate does nothing per key but ``==`` /
        ``str.startswith`` / float comparison on the constrained dimensions.
        Precondition: keys are *normalized* (:meth:`validate_key` /
        :meth:`pad_key`, as every publish entry point does) — the predicate
        neither validates nor normalizes them.  On such keys it agrees with
        :meth:`matches`, the validating reference (property-tested).
        """
        shape, constants = self._bound_terms(query)
        return _filter_factory(shape, False)(*constants)

    def _bound_terms(self, query) -> tuple[_Shape, list[Any]]:
        """The terms that constrain normalized keys: their shape
        ``((position, term kind), ...)`` and their normalized constants in
        the same order.  Terms that admit every stored value are left out."""
        q = self.as_query(query)
        shape: list[tuple[int, type]] = []
        constants: list[Any] = []
        for position, (dim, term) in enumerate(zip(self.dimensions, q.terms)):
            if isinstance(term, Wildcard):
                continue
            if isinstance(term, Prefix):
                constants.append(dim.validate(term.prefix))
            elif isinstance(term, NumericRange):
                assert isinstance(dim, NumericDimension)
                # Stored values lie in [minimum, maximum], so a bound at or
                # beyond that end (or absent) constrains nothing.
                low, high = dim.minimum, dim.maximum
                if term.low is not None:
                    low = max(low, float(term.low))
                if term.high is not None:
                    high = min(high, float(term.high))
                if low == dim.minimum and high == dim.maximum:
                    continue
                constants += (low, high)
            else:
                assert isinstance(term, Exact)
                constants.append(dim.validate(term.value))
            shape.append((position, type(term)))
        return tuple(shape), constants

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
