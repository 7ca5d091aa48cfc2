"""Tests for the query AST and textual parser."""

import pytest

from repro.errors import KeywordError, QueryParseError
from repro.keywords.query import (
    Exact,
    NumericRange,
    Prefix,
    Query,
    Wildcard,
    parse_terms,
)


class TestParser:
    def test_exact_keywords(self):
        q = parse_terms("(computer, network)")
        assert q.terms == (Exact("computer"), Exact("network"))

    def test_case_normalized(self):
        q = parse_terms("(Computer, NETWORK)")
        assert q.terms == (Exact("computer"), Exact("network"))

    def test_prefix_and_wildcard(self):
        q = parse_terms("(comp*, *)")
        assert q.terms == (Prefix("comp"), Wildcard())

    def test_paper_example_q1(self):
        q = parse_terms("(computer, *)")
        assert q.terms == (Exact("computer"), Wildcard())

    def test_paper_example_q2_3d(self):
        q = parse_terms("(comp*, net*, *)")
        assert q.terms == (Prefix("comp"), Prefix("net"), Wildcard())

    def test_paper_range_example(self):
        """(256-512MB memory, any CPU, at least 10Mbps) from the paper §3.3."""
        q = parse_terms("(256-512, *, 10-*)")
        assert q.terms == (
            NumericRange(256.0, 512.0),
            Wildcard(),
            NumericRange(10.0, None),
        )

    def test_open_low_range(self):
        q = parse_terms("(*-512, *)")
        assert q.terms[0] == NumericRange(None, 512.0)

    def test_numeric_exact(self):
        q = parse_terms("(512, *)")
        assert q.terms == (Exact(512.0), Wildcard())

    def test_float_range(self):
        q = parse_terms("(0.5-1.5, *)")
        assert q.terms[0] == NumericRange(0.5, 1.5)

    def test_scientific_notation(self):
        q = parse_terms("(1e3-2.5e3, *)")
        assert q.terms[0] == NumericRange(1000.0, 2500.0)

    def test_negative_exponent(self):
        q = parse_terms("(0.0-2.5e-2, *)")
        assert q.terms[0] == NumericRange(0.0, 0.025)

    def test_without_parens(self):
        q = parse_terms("computer, net*")
        assert q.terms == (Exact("computer"), Prefix("net"))

    def test_whitespace_tolerant(self):
        q = parse_terms("(  computer ,   net*  )")
        assert q.terms == (Exact("computer"), Prefix("net"))

    def test_rejects_empty(self):
        with pytest.raises(QueryParseError):
            parse_terms("()")
        with pytest.raises(QueryParseError):
            parse_terms("")

    def test_rejects_empty_term(self):
        with pytest.raises(QueryParseError):
            parse_terms("(computer, , network)")

    def test_rejects_garbage(self):
        with pytest.raises(QueryParseError):
            parse_terms("(comp@ter, *)")

    def test_rejects_inverted_range(self):
        with pytest.raises(QueryParseError):
            parse_terms("(512-256, *)")


class TestQuery:
    def test_needs_terms(self):
        with pytest.raises(KeywordError):
            Query(())

    def test_str_roundtrip(self):
        q = parse_terms("(comp*, network, 256-*)")
        assert parse_terms(str(q)) == q

    def test_str_formats(self):
        assert str(Query((Prefix("comp"), Wildcard()))) == "(comp*, *)"
        assert str(NumericRange(1.0, None)) == "1-*"
        assert str(NumericRange(None, 2.5)) == "*-2.5"


class TestNumericRangeValidation:
    def test_empty_rejected(self):
        with pytest.raises(KeywordError):
            NumericRange(5.0, 1.0)

    def test_open_ends_ok(self):
        NumericRange(None, None)
        NumericRange(1.0, None)
        NumericRange(None, 1.0)
