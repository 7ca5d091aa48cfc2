"""Tests for the initiator-side result cache.

The load-bearing property is *freshness*: a cached answer must be the one
the engine would compute right now.  LRU/TTL bookkeeping is secondary —
what these tests pin hardest is invalidation precision (only overlapping
entries drop) and the partial-result stale guard.
"""

import random

import pytest

from repro.core.metrics import QueryResult, QueryStats
from repro.config import Config, using
from repro.core.resultcache import ResultCache, result_key
from repro.core.system import SquidSystem
from repro.keywords.dimensions import WordDimension
from repro.keywords.space import BoundQuery, KeywordSpace
from repro.obs import collecting
from repro.sfc.regions import Region

WORDS = ["computer", "computation", "network", "netbook", "storage", "memory"]


def build_system(seed=11, n_nodes=24, n_docs=120, cache=True, engine="optimized"):
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)
    system = SquidSystem.create(
        space, n_nodes=n_nodes, seed=seed, engine=engine, result_cache=cache
    )
    rng = random.Random(seed)
    for i in range(n_docs):
        system.publish((rng.choice(WORDS), rng.choice(WORDS)), payload=i)
    return system


def _prepare(system, query):
    """The (key, bound query) pair the system's fast path would use."""
    bound = system.space.bind(query)
    engine = system._coerce_engine(None)
    key = result_key(
        system.curve, bound.region, engine.name, engine.result_cache_params(),
        query=bound.query,
    )
    return key, bound


def _fake_result(matches=("m",), messages=7, complete=True, scanned=((40, 49), (10, 19))):
    stats = QueryStats(messages=messages)
    return QueryResult(
        query=None, matches=list(matches), stats=stats, complete=complete,
        scanned_ranges=list(scanned),
    )


class TestCacheUnit:
    def test_miss_then_hit(self):
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound = _prepare(system, "(computer, *)")
        assert cache.get(key) is None
        assert cache.put(key, _fake_result(), bound)
        assert cache.get(key) == ("m",)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert cache.messages_saved == 7

    def test_lru_eviction_order(self):
        system = build_system()
        cache = ResultCache(capacity=2)
        keys = {}
        for word in ("computer", "network", "storage"):
            keys[word] = _prepare(system, f"({word}, *)")
        cache.put(keys["computer"][0], _fake_result(("a",)), keys["computer"][1])
        cache.put(keys["network"][0], _fake_result(("b",)), keys["network"][1])
        cache.get(keys["computer"][0])  # refresh: "network" becomes LRU
        cache.put(keys["storage"][0], _fake_result(("c",)), keys["storage"][1])
        assert cache.evictions == 1
        assert cache.get(keys["network"][0]) is None
        assert cache.get(keys["computer"][0]) == ("a",)
        assert cache.get(keys["storage"][0]) == ("c",)

    def test_ttl_expiry_on_logical_clock(self):
        system = build_system()
        ticks = [0]
        cache = ResultCache(capacity=4, ttl=10, clock=lambda: ticks[0])
        key, bound = _prepare(system, "(computer, *)")
        cache.put(key, _fake_result(), bound)
        ticks[0] = 9
        assert cache.get(key) == ("m",)
        ticks[0] = 10
        assert cache.get(key) is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_partial_results_never_cached(self):
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound = _prepare(system, "(computer, *)")
        assert not cache.put(key, _fake_result(complete=False), bound)
        assert cache.partial_skipped == 1
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_unfootprinted_results_never_cached(self):
        # No scan windows, no footprint: no write could ever invalidate it.
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound = _prepare(system, "(computer, *)")
        with collecting() as registry:
            assert not cache.put(key, _fake_result(scanned=()), bound)
        assert cache.unfootprinted_skipped == 1
        assert registry.snapshot()["counters"]["result_cache.unfootprinted_skipped"] == 1
        assert len(cache) == 0 and cache.get(key) is None

    def test_footprint_is_the_merged_scan_windows(self):
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound = _prepare(system, "(computer, *)")
        cache.put(key, _fake_result(scanned=[(40, 49), (10, 19), (20, 25)]), bound)
        assert cache._entries[key].ranges == ((10, 25), (40, 49))

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl=0)

    def test_spawn_empty_copies_config_only(self):
        ticks = [3]
        cache = ResultCache(capacity=5, ttl=2.5, clock=lambda: ticks[0])
        cache.hits = 9
        spawned = cache.spawn_empty()
        assert (spawned.capacity, spawned.ttl) == (5, 2.5)
        assert spawned.clock is cache.clock
        assert spawned.hits == 0 and len(spawned) == 0

    def test_result_key_separates_engines_params_and_query_text(self):
        system = build_system()
        q = system.space.as_query("(computer, *)")
        region = system.space.region(q)
        base = result_key(system.curve, region, "optimized", ("optimized", False, 2), query=q)
        assert base == result_key(
            system.curve, region, "optimized", ("optimized", False, 2), query=q
        )
        assert base != result_key(system.curve, region, "naive", ("naive", 4), query=q)
        assert base != result_key(
            system.curve, region, "optimized", ("optimized", True, 2), query=q
        )
        # Same region, different query text (the coarse-quantization trap):
        other = system.space.as_query("(comp*, *)")
        assert base != result_key(
            system.curve, region, "optimized", ("optimized", False, 2), query=other
        )


class TestInvalidationPrecision:
    def test_publish_inside_region_invalidates(self):
        system = build_system()
        first = system.query("(computer, *)")
        assert not first.stats.result_cache_hit
        assert system.query("(computer, *)").stats.result_cache_hit
        system.publish(("computer", "memory"), payload="fresh")
        res = system.query("(computer, *)")
        assert not res.stats.result_cache_hit
        assert "fresh" in [e.payload for e in res.matches]

    def test_publish_outside_region_preserves_entry(self):
        system = build_system()
        system.query("(computer, *)")
        before = len(system.result_cache)
        system.publish(("network", "memory"), payload="elsewhere")
        assert len(system.result_cache) == before
        hit = system.query("(computer, *)")
        assert hit.stats.result_cache_hit
        assert "elsewhere" not in [e.payload for e in hit.matches]

    def test_publish_many_invalidates_overlapping_only(self):
        system = build_system()
        system.query("(computer, *)")
        system.query("(storage, *)")
        assert len(system.result_cache) == 2
        system.publish_many([("computer", "netbook"), ("netbook", "netbook")])
        # Only the (computer, *) entry overlaps the batch.
        assert len(system.result_cache) == 1
        assert system.query("(storage, *)").stats.result_cache_hit
        res = system.query("(computer, *)")
        assert not res.stats.result_cache_hit

    def test_unpublish_invalidates_and_removes(self):
        system = build_system(n_docs=0)
        system.publish(("computer", "memory"), payload="keep")
        system.publish(("computer", "memory"), payload="drop")
        assert len(system.query("(computer, *)").matches) == 2
        removed = system.unpublish(("computer", "memory"), payload="drop")
        assert removed == 1
        res = system.query("(computer, *)")
        assert not res.stats.result_cache_hit
        assert [e.payload for e in res.matches] == ["keep"]

    def test_membership_churn_invalidates_by_segment(self):
        system = build_system()
        system.query("(computer, *)")
        system.query("(storage, *)")
        assert len(system.result_cache) == 2
        # A join splits one owner's segment; only entries overlapping the
        # transferred span may drop — and queries stay exact either way.
        new_id = next(
            i for i in range(system.overlay.space) if i not in system.overlay.node_ids()
        )
        system.add_node(new_id)
        for query in ("(computer, *)", "(storage, *)"):
            got = sorted(str(e.payload) for e in system.query(query).matches)
            want = sorted(str(e.payload) for e in system.brute_force_matches(query))
            assert got == want

    def test_failed_node_invalidates_its_segment(self):
        system = build_system()
        res = system.query("(computer, *)")
        assert len(system.result_cache) == 1
        # Crash every node: whatever owned the region is certainly gone.
        for node_id in list(system.overlay.node_ids())[:-1]:
            system.fail_node(node_id)
        assert len(system.result_cache) == 0
        fresh = system.query("(computer, *)")
        assert not fresh.stats.result_cache_hit
        assert len(fresh.matches) <= len(res.matches)

    def test_invalidate_range_and_all(self):
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound = _prepare(system, "(computer, *)")
        cache.put(key, _fake_result(), bound)
        low = cache._entries[key].ranges[0][0]
        assert cache.invalidate_range(low, low) == 1
        assert len(cache) == 0
        cache.put(key, _fake_result(), bound)
        # Inverted and empty ranges drop nothing.
        assert cache.invalidate_range(5, 2) == 0
        assert cache.invalidate_all() == 1
        assert len(cache) == 0
        assert cache.invalidations == 2


class TestSystemWiring:
    def test_cache_off_by_default(self):
        system = build_system(cache=False)
        assert system.result_cache is None
        res = system.query("(computer, *)")
        assert not res.stats.result_cache_hit
        # Scan windows are the cache's footprint; without one, none are kept.
        assert res.scanned_ranges == () and res.stats.processing_node_count > 1

    def test_process_default_knob(self):
        space = KeywordSpace([WordDimension("kw")], bits=6)
        with using(Config(result_cache=32)):
            system = SquidSystem.create(space, n_nodes=4, seed=1)
            off = SquidSystem.create(space, n_nodes=4, seed=1, result_cache=False)
        assert system.result_cache is not None
        assert system.result_cache.capacity == 32
        assert off.result_cache is None
        assert SquidSystem.create(space, n_nodes=4, seed=1).result_cache is None

    def test_limit_queries_bypass_the_cache(self):
        system = build_system()
        full = system.query("(computer, *)")
        assert len(system.result_cache) == 1
        # Discovery mode truncates; serving it from the complete cached
        # entry (or caching its truncated answer) would both be wrong.
        limited = system.query("(computer, *)", limit=1)
        assert not limited.stats.result_cache_hit
        assert len(limited.matches) < len(full.matches)
        assert system.query("(computer, *)").stats.result_cache_hit

    def test_hit_is_identical_and_saves_messages(self):
        system = build_system()
        with collecting() as registry:
            cold = system.query("(comp*, *)")
            warm = system.query("(comp*, *)")
        assert warm.stats.result_cache_hit and not cold.stats.result_cache_hit
        assert warm.complete
        assert [id(e) for e in warm.matches] == [id(e) for e in cold.matches]
        assert warm.stats.messages == 0  # a hit costs no wire traffic
        counters = registry.snapshot()["counters"]
        assert counters["result_cache.misses"] == 1
        assert counters["result_cache.hits"] == 1
        assert counters["result_cache.messages_saved"] == cold.stats.messages

    def test_naive_engine_also_cached(self):
        system = build_system(engine="naive")
        cold = system.query("(computer, *)")
        warm = system.query("(computer, *)")
        assert warm.stats.result_cache_hit
        assert sorted(str(e.payload) for e in warm.matches) == sorted(
            str(e.payload) for e in cold.matches
        )


class TestCost:
    """What the cache may spend: a hit is a lookup, a miss files the
    footprint its run scanned, a write tests only the entries it can touch
    — and nothing outlives the entry it belongs to."""

    def test_repeated_text_hit_parses_and_covers_nothing(self):
        system = build_system()
        space, cache = system.space, system.result_cache
        calls = {"as_query": 0, "region": 0, "get": 0}

        def counted(obj, attr):
            inner = getattr(obj, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return inner(*args, **kwargs)

            setattr(obj, attr, wrapper)  # instance attribute, as perf/ wraps

        cold = system.query("(comp*, *)")
        for obj, attr in ((space, "as_query"), (space, "region"), (cache, "get")):
            counted(obj, attr)
        warm = system.query("(comp*, *)")
        assert warm.stats.result_cache_hit
        assert calls == {"as_query": 0, "region": 0, "get": 1}
        assert [id(e) for e in warm.matches] == [id(e) for e in cold.matches]
        assert warm.query == cold.query
        # The same query as an AST takes the parsing path to the same entry.
        again = system.query(cold.query)
        assert again.stats.result_cache_hit and len(cache) == 1
        assert calls["get"] == 2 and calls["region"] == 1

    @pytest.mark.parametrize("engine", ["optimized", "naive"])
    def test_filing_a_miss_refines_nothing(self, engine):
        refinement = ("sfc.refine.scalar_cells", "sfc.refine.vec_calls", "sfc.refine.vec_cells")
        spent = []
        for cache in (True, False):
            system = build_system(cache=cache, engine=engine)
            origin = system.overlay.node_ids()[0]
            with collecting() as registry:
                for query in ("(comp*, *)", "(*, net*)", "(storage, memory)"):
                    assert not system.query(query, origin=origin).stats.result_cache_hit
            counters = registry.snapshot()["counters"]
            spent.append([counters.get(name, 0) for name in refinement])
        assert spent[0] == spent[1] and any(spent[0])

    def test_indexed_invalidation_equals_the_linear_definition(self):
        rng = random.Random(5)
        for bits in (8, 20, 32):  # one bucket per index ... 2**22 indices per bucket
            size = 1 << bits
            for _ in range(40):
                cache = ResultCache(capacity=64)
                for n in range(rng.randrange(1, 40)):
                    cache.put(("k", n), _random_result(rng, size), _Bound(_ANYWHERE))
                for _ in range(30):
                    live = {key: e.ranges for key, e in cache._entries.items()}
                    kind = rng.randrange(3)
                    if kind == 0:
                        points = [_random_index(rng, live, size)]
                        cache.invalidate_point(points[0])
                    elif kind == 1:
                        points = [_random_index(rng, live, size) for _ in range(3)]
                        cache.invalidate_points(points)
                    else:
                        low = _random_index(rng, live, size)
                        high = min(size - 1, low + rng.choice([0, 1, size >> 9, size]))
                        cache.invalidate_range(low, high)
                    want = {
                        key for key, ranges in live.items()
                        if (
                            _ranges_overlap(ranges, low, high) if kind == 2
                            else any(_ranges_contain(ranges, p) for p in points)
                        )
                    }
                    assert set(live) - set(cache._entries) == want

    def test_point_invalidation_still_confirms_with_the_region(self):
        cache = ResultCache(capacity=4)
        inside = _Bound(Region.from_bounds([(0, 3), (0, 3)]))
        cache.put("k", _fake_result(scanned=[(0, 99)]), inside)
        assert cache.invalidate_point(50, (9, 9)) == 0  # in the footprint only
        assert cache.invalidate_point(50, (2, 3)) == 1

    def test_nothing_outlives_its_entry(self):
        rng = random.Random(11)
        ticks = [0]
        cache = ResultCache(capacity=8, ttl=6, clock=lambda: ticks[0])
        size = 1 << 16
        for step in range(2000):
            ticks[0] += 1
            action = rng.randrange(8)
            n = rng.randrange(24)
            if action < 4:  # files; beyond capacity 8 it evicts
                alias = ("text", n) if rng.random() < 0.7 else None
                cache.put(("k", n), _random_result(rng, size), _Bound(_ANYWHERE), alias)
            elif action == 4:  # lookups expire what is older than the TTL
                cache.get(("k", n))
            elif action == 5:
                cache.invalidate_point(rng.randrange(size))
            elif action == 6:
                low = rng.randrange(size)
                cache.invalidate_range(low, low + rng.randrange(size >> 4))
            elif rng.random() < 0.1:
                cache.clear()
            live = set(map(id, cache._entries.values()))
            assert len(cache) <= 8
            for alias, (_, key) in cache._aliases.items():
                assert cache._entries[key].alias == alias
            assert len(cache._aliases) == sum(
                e.alias is not None for e in cache._entries.values()
            )
            for group in cache._buckets.values():
                assert all(id(entry) in live for entry in group)
        assert cache.evictions and cache.expirations and cache.invalidations


def _Bound(region):
    return BoundQuery(None, region)


_ANYWHERE = Region.from_bounds([(0, 1 << 16), (0, 1 << 16)])


def _random_result(rng, size):
    windows = []
    for _ in range(rng.randrange(1, 12)):
        low = rng.randrange(size)
        windows.append((low, min(size - 1, low + rng.choice([0, 3, size >> 10, size >> 4]))))
    return _fake_result(scanned=windows)


def _random_index(rng, live, size):
    """Half the time an end of some live footprint range, else anywhere."""
    ends = [end for ranges in live.values() for r in ranges for end in r]
    if ends and rng.random() < 0.5:
        return min(size - 1, max(0, rng.choice(ends) + rng.choice([-1, 0, 1])))
    return rng.randrange(size)


# The linear definition the indexed ``invalidate_*`` must agree with: walk
# an entry's sorted ranges (this was the implementation before the index).
def _ranges_contain(ranges, index):
    for low, high in ranges:
        if low <= index <= high:
            return True
        if low > index:
            return False
    return False


def _ranges_overlap(ranges, low, high):
    for r_low, r_high in ranges:
        if r_low <= high and low <= r_high:
            return True
        if r_low > high:
            return False
    return False
