"""Flexible query AST and textual parser (paper §3.3).

A query assigns one *term* to each dimension of the keyword space:

* :class:`Wildcard` — ``*``: any value;
* :class:`Exact` — a whole keyword / numeric value / category;
* :class:`Prefix` — a partial keyword with a trailing wildcard, ``comp*``;
* :class:`NumericRange` — ``256-512`` (inclusive), with open ends spelled
  ``*`` (``256-*`` means "at least 256").

The textual form matches the paper's examples: ``(computer, network)``,
``(comp*, net*)``, ``(256-512, *, 10-*)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Union

from repro.errors import KeywordError, QueryParseError

__all__ = [
    "Wildcard",
    "Exact",
    "Prefix",
    "NumericRange",
    "Term",
    "Query",
    "parse_terms",
]


@dataclass(frozen=True)
class Wildcard:
    """Matches every value on its dimension."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Exact:
    """Matches exactly one value."""

    value: Any

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Prefix:
    """Matches every word starting with ``prefix`` (word dimensions only)."""

    prefix: str

    def __str__(self) -> str:
        return f"{self.prefix}*"


@dataclass(frozen=True)
class NumericRange:
    """Matches numeric values in ``[low, high]``; ``None`` ends are open."""

    low: float | None
    high: float | None

    def __post_init__(self) -> None:
        if self.low is not None and self.high is not None and self.low > self.high:
            raise KeywordError(f"empty numeric range [{self.low}, {self.high}]")

    def __str__(self) -> str:
        lo = "*" if self.low is None else _fmt_num(self.low)
        hi = "*" if self.high is None else _fmt_num(self.high)
        return f"{lo}-{hi}"


Term = Union[Wildcard, Exact, Prefix, NumericRange]


@dataclass(frozen=True)
class Query:
    """One term per dimension of the keyword space.

    ``Query`` is deliberately space-agnostic: binding to a concrete
    :class:`~repro.keywords.space.KeywordSpace` (term/dimension type checks,
    region construction, match post-filtering) happens in the space.
    """

    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise KeywordError("a query needs at least one term")

    @property
    def dims(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.terms) + ")"


_NUM = r"[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
_RANGE_RE = re.compile(rf"^({_NUM}|\*)\s*-\s*({_NUM}|\*)$")
_WORD_RE = re.compile(r"^[A-Za-z]+$")
_PREFIX_RE = re.compile(r"^([A-Za-z]+)\*$")
_NUM_RE = re.compile(rf"^{_NUM}$")


def parse_terms(text: str) -> Query:
    """Parse the paper's textual query syntax into a :class:`Query`.

    >>> parse_terms("(comp*, network)").terms
    (Prefix(prefix='comp'), Exact(value='network'))
    >>> parse_terms("(256-512, *)").terms
    (NumericRange(low=256.0, high=512.0), Wildcard())
    """
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    if not stripped.strip():
        raise QueryParseError(f"empty query: {text!r}")
    parts = [p.strip() for p in stripped.split(",")]
    terms: list[Term] = []
    for part in parts:
        terms.append(_parse_term(part, text))
    return Query(tuple(terms))


def _parse_term(part: str, full_text: str) -> Term:
    if not part:
        raise QueryParseError(f"empty term in query {full_text!r}")
    if part == "*":
        return Wildcard()
    match = _RANGE_RE.match(part)
    if match:
        lo_txt, hi_txt = match.groups()
        low = None if lo_txt == "*" else float(lo_txt)
        high = None if hi_txt == "*" else float(hi_txt)
        try:
            return NumericRange(low, high)
        except KeywordError as exc:
            raise QueryParseError(str(exc)) from None
    match = _PREFIX_RE.match(part)
    if match:
        return Prefix(match.group(1).lower())
    if _WORD_RE.match(part):
        return Exact(part.lower())
    if _NUM_RE.match(part):
        return Exact(float(part))
    raise QueryParseError(f"cannot parse term {part!r} in query {full_text!r}")


def _fmt_num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else str(value)
