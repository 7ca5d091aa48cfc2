"""Keyword space: typed dimensions, flexible queries, and their encoding."""

from repro.keywords.dimensions import (
    CategoricalDimension,
    Dimension,
    NumericDimension,
    WordDimension,
)
from repro.keywords.query import (
    Exact,
    NumericRange,
    Prefix,
    Query,
    Term,
    Wildcard,
    parse_terms,
)
from repro.keywords.space import BoundQuery, Key, KeywordSpace

__all__ = [
    "Dimension",
    "WordDimension",
    "NumericDimension",
    "CategoricalDimension",
    "Query",
    "Term",
    "Wildcard",
    "Exact",
    "Prefix",
    "NumericRange",
    "parse_terms",
    "KeywordSpace",
    "BoundQuery",
    "Key",
]
