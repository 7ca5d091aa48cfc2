"""Tests for KeywordSpace: encoding, regions, and the exactness invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatchError, KeywordError
from repro.keywords import (
    CategoricalDimension,
    Exact,
    KeywordSpace,
    NumericDimension,
    NumericRange,
    Prefix,
    Query,
    Wildcard,
    WordDimension,
)
from repro.keywords.space import _filter_source
from repro.store import StoredElement

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10)


def storage_space(bits=16):
    """2-D P2P storage keyword space (paper Figure 1a)."""
    return KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=bits)


def grid_space(bits=10):
    """3-D grid resource space (paper Figure 1b)."""
    return KeywordSpace(
        [
            NumericDimension("storage", 0, 1024),
            NumericDimension("bandwidth", 0, 1000),
            NumericDimension("cost", 0, 100),
        ],
        bits=bits,
    )


class TestConstruction:
    def test_requires_dimensions(self):
        with pytest.raises(KeywordError):
            KeywordSpace([], bits=8)

    def test_requires_positive_bits(self):
        with pytest.raises(KeywordError):
            KeywordSpace([WordDimension("a")], bits=0)

    def test_rejects_duplicate_names(self):
        with pytest.raises(KeywordError):
            KeywordSpace([WordDimension("a"), WordDimension("a")], bits=8)

    def test_properties(self):
        space = storage_space(bits=12)
        assert space.dims == 2
        assert space.side == 4096


class TestCoordinates:
    def test_word_coordinates(self):
        space = storage_space()
        point = space.coordinates(("computer", "network"))
        assert len(point) == 2
        assert all(0 <= c < space.side for c in point)

    def test_wrong_arity(self):
        with pytest.raises(DimensionMismatchError):
            storage_space().coordinates(("one",))

    def test_validate_key_normalizes(self):
        space = storage_space()
        assert space.validate_key(("Computer", "NETWORK")) == ("computer", "network")

    def test_coordinates_many(self):
        space = storage_space()
        arr = space.coordinates_many([("a", "b"), ("c", "d")])
        assert arr.shape == (2, 2)
        assert tuple(arr[0]) == space.coordinates(("a", "b"))

    def test_coordinates_many_empty(self):
        assert storage_space().coordinates_many([]).shape == (0, 2)

    def test_coordinates_many_is_coordinates_per_key(self):
        """The bulk form encodes a repeated word once; the rows must not show it."""
        space = KeywordSpace(
            [WordDimension("kw"), NumericDimension("size", 0, 1024), WordDimension("kw2")],
            bits=12,
        )
        keys = [
            ("network", 1, "a"),  # "a" encodes to 0: a memo must not take 0 for a miss
            ("Network", 1.0, "A"),
            ("NETWORK", True, "a"),
            ("computer", 512, "network"),
            ("a", 0, "computer"),
            ("network", 1, "a"),
        ]
        assert space.coordinates(("a", 0, "a")) == (0, 0, 0)
        rows = space.coordinates_many(iter(keys))
        assert [tuple(row) for row in rows] == [space.coordinates(key) for key in keys]

    @pytest.mark.parametrize("bad", [5, None, ["net"], b"net", "net work", ""])
    def test_coordinates_many_rejects_what_coordinates_rejects(self, bad):
        space = storage_space()
        for key in [("net", bad), (bad, "net")]:
            with pytest.raises(KeywordError):
                space.coordinates(key)
            with pytest.raises(KeywordError):
                space.coordinates_many([("net", "net"), key])
        with pytest.raises(DimensionMismatchError):
            space.coordinates_many([("net", "net"), ("net",)])


class TestRegion:
    def test_exact_query_small_region(self):
        space = storage_space()
        region = space.region("(computer, network)")
        assert region.contains_point(space.coordinates(("computer", "network")))

    def test_wildcard_dimension_full_width(self):
        space = storage_space()
        region = space.region("(computer, *)")
        box = region.boxes[0]
        assert box.intervals[1].low == 0
        assert box.intervals[1].high == space.side - 1

    def test_text_and_ast_agree(self):
        space = storage_space()
        ast = Query((Prefix("comp"), Wildcard()))
        assert space.region("(comp*, *)") == space.region(ast)

    def test_range_region(self):
        space = grid_space()
        region = space.region("(256-512, *, 10-*)")
        box = region.boxes[0]
        lo, hi = box.intervals[0].low, box.intervals[0].high
        assert lo <= space.coordinates((300, 0, 50))[0] <= hi

    def test_range_clamped_to_domain(self):
        space = grid_space()
        region = space.region(Query((NumericRange(None, 2000.0), Wildcard(), Wildcard())))
        assert region.boxes[0].intervals[0].high == space.side - 1

    def test_type_checking_prefix_on_numeric(self):
        space = grid_space()
        with pytest.raises(KeywordError):
            space.region(Query((Prefix("ab"), Wildcard(), Wildcard())))

    def test_type_checking_range_on_word(self):
        space = storage_space()
        with pytest.raises(KeywordError):
            space.region(Query((NumericRange(1.0, 2.0), Wildcard())))

    def test_wrong_query_arity(self):
        with pytest.raises(DimensionMismatchError):
            storage_space().region("(a, b, c)")


class TestMatches:
    def test_exact(self):
        space = storage_space()
        assert space.matches(("computer", "network"), "(computer, network)")
        assert not space.matches(("computer", "storage"), "(computer, network)")

    def test_prefix(self):
        space = storage_space()
        assert space.matches(("computer", "network"), "(comp*, *)")
        assert not space.matches(("docs", "network"), "(comp*, *)")

    def test_range(self):
        space = grid_space()
        assert space.matches((300, 100, 5), "(256-512, *, *)")
        assert not space.matches((100, 100, 5), "(256-512, *, *)")

    def test_wrong_key_arity(self):
        with pytest.raises(DimensionMismatchError):
            storage_space().matches(("a",), "(a, b)")


class TestCoveringInvariant:
    """matches(key, q) => region(q).contains_point(coordinates(key))."""

    @given(words, words, words, st.integers(min_value=1, max_value=6))
    @settings(max_examples=300)
    def test_word_prefix_covering(self, w1, w2, base, plen):
        space = storage_space(bits=14)
        prefix = base[:plen]
        query = Query((Prefix(prefix), Wildcard()))
        key = (prefix + w1, w2)  # guaranteed prefix match
        assert space.matches(key, query)
        assert space.region(query).contains_point(space.coordinates(key))

    @given(words, words, words)
    @settings(max_examples=200)
    def test_exact_covering(self, w1, w2, _):
        space = storage_space(bits=14)
        query = Query((Exact(w1), Exact(w2)))
        key = (w1, w2)
        assert space.region(query).contains_point(space.coordinates(key))

    @given(
        st.floats(min_value=0, max_value=1024),
        st.floats(min_value=0, max_value=1024),
        st.floats(min_value=0, max_value=1024),
    )
    @settings(max_examples=200)
    def test_numeric_covering(self, a, b, v):
        space = grid_space(bits=12)
        low, high = sorted((a, b))
        if not (low <= v <= high):
            return
        query = Query((NumericRange(low, high), Wildcard(), Wildcard()))
        key = (v, 500, 50)
        assert space.matches(key, query)
        assert space.region(query).contains_point(space.coordinates(key))


class TestMixedSpace:
    def test_word_plus_numeric_plus_categorical(self):
        space = KeywordSpace(
            [
                WordDimension("name"),
                NumericDimension("memory", 0, 4096),
                CategoricalDimension("os", ["linux", "windows"]),
            ],
            bits=10,
        )
        key = ("webserver", 2048, "linux")
        query = Query((Prefix("web"), NumericRange(1024.0, None), Exact("linux")))
        assert space.matches(key, query)
        assert space.region(query).contains_point(space.coordinates(key))
        assert not space.matches(("webserver", 512, "linux"), query)


def mixed_space(bits=10):
    """Word + linear numeric + log numeric + categorical, one of each."""
    return KeywordSpace(
        [
            WordDimension("name"),
            NumericDimension("memory", 0, 1024),
            NumericDimension("bandwidth", 1, 4096, log_scale=True),
            CategoricalDimension("os", ["linux", "windows", "mac"]),
        ],
        bits=bits,
    )


mixed_case_words = st.text(
    alphabet="abcxyzABCXYZ", min_size=1, max_size=6
)


def numbers(low, high):
    """In-domain values, as ints and as floats (both are publishable)."""
    return st.one_of(
        st.integers(min_value=low, max_value=high),
        st.floats(min_value=low, max_value=high, allow_nan=False),
    )


def range_terms(low, high):
    """Ranges with open ends and bounds beyond the dimension's domain."""
    span = high - low
    bound = st.one_of(
        st.none(),
        st.floats(min_value=low - span, max_value=high + span, allow_nan=False),
    )
    return st.tuples(bound, bound).map(
        lambda ends: NumericRange(*ends)
        if None in ends
        else NumericRange(min(ends), max(ends))
    )


@st.composite
def keys_and_queries(draw):
    word = draw(mixed_case_words)
    memory = draw(numbers(0, 1024))
    bandwidth = draw(numbers(1, 4096))
    os_name = draw(st.sampled_from(["linux", "windows", "mac"]))
    # Terms are drawn near the key so that matches are common, not just
    # possible: the key's own value in another case / another numeric type,
    # one of its prefixes, or an unrelated constant.
    word_term = draw(st.one_of(
        st.just(Wildcard()),
        st.sampled_from([Exact(word), Exact(word.swapcase())]),
        st.integers(1, len(word)).map(lambda n: Prefix(word[:n].swapcase())),
        mixed_case_words.map(Exact),
        mixed_case_words.map(Prefix),
    ))

    def numeric_term(value, low, high):
        return st.one_of(
            st.just(Wildcard()),
            st.sampled_from([Exact(value), Exact(float(value))]),
            numbers(low, high).map(Exact),
            range_terms(low, high),
        )

    os_term = draw(st.one_of(
        st.just(Wildcard()),
        st.sampled_from(["linux", "windows", "mac"]).map(Exact),
    ))
    query = Query((
        word_term,
        draw(numeric_term(memory, 0, 1024)),
        draw(numeric_term(bandwidth, 1, 4096)),
        os_term,
    ))
    return (word, memory, bandwidth, os_name), query


class TestMatcher:
    """matcher(q)(validate_key(k)) == matches(k, q): bound once, same answer —
    and keeper(q), the bulk form the engines run, keeps exactly those keys."""

    @given(keys_and_queries())
    @settings(max_examples=500)
    def test_agrees_with_reference(self, key_and_query):
        space = mixed_space()
        key, query = key_and_query
        assert space.matcher(query)(space.validate_key(key)) == space.matches(key, query)
        element = StoredElement(index=0, key=space.validate_key(key))
        kept = space.keeper(query)([element])
        assert kept == ([element] if space.matches(key, query) else [])
        assert all(one is element for one in kept)

    def test_text_ast_and_bound_forms_agree(self):
        space = storage_space()
        key = space.validate_key(("Computer", "network"))
        text = "(comp*, network)"
        for form in (text, space.as_query(text), space.bind(text),
                     (Prefix("COMP"), Exact("Network"))):
            assert space.matcher(form)(key)
            assert not space.matcher(form)(("docs", "network"))

    def test_all_wildcards_match_everything(self):
        space = grid_space()
        match = space.matcher("(*, *-*, -5-2000)")
        assert match(space.validate_key((0, 1000, 100)))
        elements = [
            StoredElement(index=n, key=space.validate_key(key))
            for n, key in enumerate([(0, 1000, 100), (1024, 0, 0), (3, 4, 5)])
        ]
        kept = space.keeper("(*, *-*, -5-2000)")(iter(elements))
        assert kept == elements and kept is not elements

    def test_bulk_filter_keeps_order_and_identity(self):
        space = storage_space()
        keys = [("computer", "network"), ("docs", "network"), ("compiler", "net"),
                ("computer", "graphics"), ("comp", "networks")]
        elements = [StoredElement(index=n, key=key) for n, key in enumerate(keys)]
        kept = space.keeper("(comp*, net*)")(elements)
        assert [e.index for e in kept] == [0, 2, 4]
        assert all(e is elements[e.index] for e in kept)

    def test_constants_never_reach_the_source(self):
        """The filter's source is built from the query's shape alone: hostile
        constants compile to the benign query's source and are only compared."""
        hostile = ['"', "'); __import__('os').system('true') #", "a\nb\\c", "\\"]
        space = KeywordSpace(
            [CategoricalDimension("tag", ["plain", *hostile]), NumericDimension("n", 0, 9)],
            bits=4,
        )
        benign_shape, _ = space._bound_terms((Exact("plain"), NumericRange(1, 2)))
        for bulk in (True, False):
            benign_source = _filter_source(benign_shape, bulk)
            for constant in hostile:
                shape, constants = space._bound_terms((Exact(constant), NumericRange(1, 2)))
                assert shape == benign_shape and constants == [constant, 1.0, 2.0]
                assert _filter_source(shape, bulk) == benign_source
        assert _filter_source(benign_shape, True) == (
            "lambda a0, a1, b1: lambda elements: "
            "[e for e in elements if e.key[0] == a0 and a1 <= e.key[1] <= b1]"
        )
        assert _filter_source(benign_shape, False) == (
            "lambda a0, a1, b1: lambda key: key[0] == a0 and a1 <= key[1] <= b1"
        )
        # The same through prefix terms, the shape of "(comp*, net*)": a word
        # dimension that validates nothing lets the hostile text reach the bind.
        class AnyText(WordDimension):
            def validate(self, value):
                return value

        loose = KeywordSpace([AnyText("a"), AnyText("b")], bits=4)
        query = (Prefix(hostile[1]), Prefix(hostile[2]))
        shape, constants = loose._bound_terms(query)
        assert shape == storage_space()._bound_terms("(comp*, net*)")[0]
        assert constants == [hostile[1], hostile[2]]
        assert _filter_source(shape, True) == (
            "lambda a0, a1: lambda elements: "
            "[e for e in elements if e.key[0].startswith(a0) and e.key[1].startswith(a1)]"
        )
        hit = StoredElement(index=0, key=(hostile[1] + "x", hostile[2]))
        miss = StoredElement(index=1, key=("x" + hostile[1], hostile[2]))
        assert loose.keeper(query)([hit, miss]) == [hit]
        elements = [
            StoredElement(index=n, key=(tag, 1.5))
            for n, tag in enumerate(["plain", *hostile])
        ]
        for n, constant in enumerate(hostile, 1):
            query = (Exact(constant), NumericRange(1, 2))
            assert space.keeper(query)(elements) == [elements[n]]
            assert [space.matcher(query)(e.key) for e in elements] == [
                m == n for m in range(len(elements))
            ]

    def test_one_code_object_per_query_shape(self):
        space = storage_space()
        first, second = space.keeper("(comp*, net*)"), space.keeper("(ab*, zz*)")
        assert first is not second and first.__code__ is second.__code__
        assert space.matcher("(comp*, net*)").__code__ is space.matcher("(ab*, zz*)").__code__
        assert first.__code__ is not space.keeper("(comp*, network)").__code__
        # Every name the compiled filter uses: its argument, the element and
        # its key attribute, the prefix test's method, the constants' slots
        # (".0" is the comprehension's own iterator where it is a nested code
        # object).  No global, no builtin.
        names, codes = set(), [first.__code__]
        for code in codes:
            names.update(code.co_names, code.co_varnames, code.co_freevars)
            codes.extend(c for c in code.co_consts if hasattr(c, "co_names"))
        assert names - {".0"} == {"elements", "e", "key", "startswith", "a0", "a1"}

    @pytest.mark.parametrize(
        "query",
        [
            "(a, b, c, d, e)",  # wrong arity
            Query((Wildcard(), Prefix("ab"), Wildcard(), Wildcard())),
            Query((NumericRange(1.0, 2.0), Wildcard(), Wildcard(), Wildcard())),
            Query((Wildcard(), Wildcard(), Wildcard(), Exact("beos"))),
            Query((Wildcard(), Exact(4096), Wildcard(), Wildcard())),  # out of domain
            Query((Exact("no digits 4"), Wildcard(), Wildcard(), Wildcard())),
        ],
    )
    def test_raises_the_bind_time_errors_of_as_query(self, query):
        space = mixed_space()
        with pytest.raises((DimensionMismatchError, KeywordError)) as expected:
            space.as_query(query)
        with pytest.raises(type(expected.value)) as got:
            space.matcher(query)
        assert str(got.value) == str(expected.value)


class TestBind:
    def test_bound_query_carries_query_and_region(self):
        space = storage_space()
        bound = space.bind("(comp*, *)")
        assert bound.query == space.as_query("(comp*, *)")
        assert bound.region == space.region("(comp*, *)")
        # Rebinding and re-checking a bound query are free.
        assert space.bind(bound) is bound
        assert space.as_query(bound) is bound.query
