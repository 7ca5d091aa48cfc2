"""Property test: ``publish_many`` must place every element exactly where
per-element ``publish`` calls would — across random node sets, every curve
family, the ``pad=`` path and every dimension type — and must reject an
invalid batch exactly as the per-key loop does."""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CategoricalDimension,
    KeywordSpace,
    NumericDimension,
    SquidSystem,
    WordDimension,
)
from repro.overlay.chord import ChordRing
from repro.sfc import CURVES, make_curve

words = st.text(alphabet="abcd", min_size=1, max_size=4)

BITS = 5  # per-dimension order; index space is 2**(2*BITS) = 1024


@st.composite
def publish_scenario(draw):
    curve_name = draw(st.sampled_from(sorted(CURVES)))
    node_ids = draw(
        st.sets(st.integers(min_value=0, max_value=2 ** (2 * BITS) - 1),
                min_size=1, max_size=12)
    )
    keys = draw(st.lists(st.tuples(words, words), min_size=1, max_size=25))
    return curve_name, sorted(node_ids), keys


def _fresh_system(curve_name: str, node_ids: list[int]) -> SquidSystem:
    space = KeywordSpace([WordDimension("k1"), WordDimension("k2")], bits=BITS)
    curve = make_curve(curve_name, space.dims, space.bits)
    ring = ChordRing.build(curve.index_bits, node_ids)
    return SquidSystem(space, ring, curve=curve, rng=0)


def _store_contents(system: SquidSystem) -> dict[int, list[tuple]]:
    return {
        node_id: [(e.index, e.key, e.payload) for e in store.all_elements()]
        for node_id, store in system.stores.items()
    }


@given(publish_scenario())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bulk_publish_places_like_scalar_publish(scenario):
    curve_name, node_ids, keys = scenario
    scalar = _fresh_system(curve_name, node_ids)
    bulk = _fresh_system(curve_name, node_ids)

    for i, key in enumerate(keys):
        scalar.publish(key, payload=i)
    inserted = bulk.publish_many(keys, payloads=range(len(keys)))

    assert inserted == len(keys)
    assert _store_contents(bulk) == _store_contents(scalar)


@given(publish_scenario())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bulk_publish_pad_matches_scalar_pad(scenario):
    curve_name, node_ids, keys = scenario
    short_keys = [(k1,) for k1, _ in keys]  # shorter than the space's 2 dims
    scalar = _fresh_system(curve_name, node_ids)
    bulk = _fresh_system(curve_name, node_ids)

    for i, key in enumerate(short_keys):
        scalar.publish(key, payload=i, pad=True)
    bulk.publish_many(short_keys, payloads=range(len(short_keys)), pad=True)

    assert _store_contents(bulk) == _store_contents(scalar)


@given(publish_scenario())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_owner_many_matches_scalar_owner(scenario):
    curve_name, node_ids, keys = scenario
    system = _fresh_system(curve_name, node_ids)
    indices = [system.index_of(system.space.validate_key(k)) for k in keys]
    owners = system.overlay.owner_many(indices)
    assert [int(o) for o in owners] == [system.overlay.owner(i) for i in indices]


# ----------------------------------------------------------------------
# Every dimension type: linear and log numeric, categorical, word
# ----------------------------------------------------------------------
MIXED_BITS = 4  # four dimensions: index space 2**16
MEM = (0.3, 1000.0)  # edges on which a reordered expression rounds differently
BW = (1.0, 10_000.0)
OSES = ["linux", "bsd", "macos"]


def _mixed_space() -> KeywordSpace:
    return KeywordSpace(
        [
            NumericDimension("mem", *MEM),
            NumericDimension("bw", *BW, log_scale=True),
            CategoricalDimension("os", OSES),
            WordDimension("kw"),
        ],
        bits=MIXED_BITS,
    )


def _edges(lo: float, hi: float, log: bool = False) -> list[float]:
    """The axis' ends and the values on its quantization edges."""
    side = 2**MIXED_BITS
    out = [lo + k * (hi - lo) / side for k in range(side + 1)]
    if log:
        out += [lo * (hi / lo) ** (k / side) for k in range(side + 1)]
    return [min(max(v, lo), hi) for v in out]


def _numeric(lo: float, hi: float, log: bool = False):
    return st.one_of(
        st.sampled_from(_edges(lo, hi, log)),
        st.floats(min_value=lo, max_value=hi),
        st.integers(min_value=math.ceil(lo), max_value=math.floor(hi)),
    )


mixed_keys = st.tuples(
    _numeric(*MEM),
    _numeric(*BW, log=True),
    st.sampled_from(OSES),
    st.text(alphabet="abcdAB", min_size=1, max_size=4),
)


def _mixed_system(curve_name: str, node_ids: list[int], store: str = "local") -> SquidSystem:
    space = _mixed_space()
    curve = make_curve(curve_name, space.dims, space.bits)
    ring = ChordRing.build(curve.index_bits, node_ids)
    return SquidSystem(space, ring, curve=curve, rng=0, store=store)


@st.composite
def mixed_scenario(draw):
    curve_name = draw(st.sampled_from(sorted(CURVES)))
    node_ids = draw(
        st.sets(st.integers(min_value=0, max_value=2 ** (4 * MIXED_BITS) - 1),
                min_size=1, max_size=12)
    )
    keys = draw(st.lists(mixed_keys, min_size=1, max_size=40))
    return curve_name, sorted(node_ids), keys


@given(mixed_scenario())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_bulk_publish_of_every_dimension_type_places_like_scalar_publish(scenario):
    curve_name, node_ids, keys = scenario
    scalar = _mixed_system(curve_name, node_ids)
    bulk = _mixed_system(curve_name, node_ids)

    for i, key in enumerate(keys):
        scalar.publish(key, payload=i)
    bulk.publish_many(keys, payloads=range(len(keys)))

    assert _store_contents(bulk) == _store_contents(scalar)
    scalar_keys = [e.key for store in scalar.stores.values() for e in store.all_elements()]
    bulk_keys = [e.key for store in bulk.stores.values() for e in store.all_elements()]
    assert [tuple(map(type, k)) for k in bulk_keys] == [tuple(map(type, k)) for k in scalar_keys]


def test_quantization_edges_encode_like_coordinates():
    """Every axis end and edge value, bulk against per key."""
    space = _mixed_space()
    keys = [
        (mem, bw, os, "ab")
        for mem, bw, os in zip(
            _edges(*MEM), _edges(*BW, log=True), OSES * 34
        )
    ]
    normalized, points = space.normalize_many(keys)
    assert normalized == [space.validate_key(key) for key in keys]
    assert [tuple(row) for row in points.tolist()] == [space.coordinates(k) for k in keys]


# ----------------------------------------------------------------------
# Invalid batches fail as the per-key loop does
# ----------------------------------------------------------------------
BAD_KEYS = [
    (float("nan"), 10.0, "bsd", "ab"),  # NaN
    (1000.5, 10.0, "bsd", "ab"),  # above the maximum
    (5.0, 0.5, "bsd", "ab"),  # below a log axis' minimum
    ("lots", 10.0, "bsd", "ab"),  # not numeric
    (5.0, 10.0, ["bsd"], "ab"),  # unhashable category
    (5.0, 10.0, "beos", "ab"),  # unknown category
    (5.0, 10.0, "bsd", "a b"),  # not a word
    (5.0, 10.0, "bsd", ["ab"]),  # unhashable word
    (5.0, 10.0, "bsd"),  # ragged: too short
    (5.0, 10.0, "bsd", "ab", "cd"),  # ragged: too long
]


def _raised(call):
    try:
        call()
    except Exception as error:  # the comparison is the test
        return type(error), str(error)
    return None


@given(
    good=st.lists(mixed_keys, min_size=1, max_size=20),
    bad=st.lists(
        st.tuples(st.sampled_from(BAD_KEYS), st.integers(min_value=0)),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_invalid_batch_raises_what_the_per_key_loop_raises(good, bad):
    keys = list(good)
    for key, where in bad:
        keys.insert(where % (len(keys) + 1), key)
    scalar = _mixed_system("hilbert", [7, 300, 40_000])
    bulk = _mixed_system("hilbert", [7, 300, 40_000])

    def per_key():
        for i, key in enumerate(keys):
            scalar.publish(key, payload=i)

    expected = _raised(per_key)
    assert expected is not None
    assert _raised(lambda: bulk.publish_many(keys, payloads=range(len(keys)))) == expected
    assert bulk.total_elements() == 0  # nothing is stored before the batch is checked
    space = _mixed_space()
    assert _raised(lambda: space.coordinates_many(keys)) == expected
