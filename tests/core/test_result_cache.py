"""Tests for the initiator-side result cache.

The load-bearing property is *freshness*: a cached answer must be the one
the engine would compute right now.  Eviction/TTL bookkeeping is secondary —
what these tests pin hardest is invalidation precision (only overlapping
entries drop) and the partial-result stale guard.
"""

import asyncio
import random

import pytest

from repro.core.metrics import QueryResult, QueryStats
from repro.config import Config, using
from repro.core.resultcache import ResultCache, result_key
from repro.core.system import SquidSystem
from repro.errors import EngineError
from repro.keywords.dimensions import WordDimension
from repro.keywords.space import BoundQuery, KeywordSpace
from repro.net.transport import AsyncioTransport, SyncTransport
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
    """The (key, bound query, match predicate) the system's fast path files."""
    bound = system.space.bind(query)
    engine = system._coerce_engine(None)
    key = result_key(
        system.curve, bound.region, engine.name, engine.result_cache_params(),
        query=bound.query,
    )
    return key, bound, system.space.matcher(bound)


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
        key, bound, match = _prepare(system, "(computer, *)")
        assert cache.get(key) is None
        assert cache.put(key, _fake_result(), bound, match)
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
        cache.put(keys["computer"][0], _fake_result(("a",)), *keys["computer"][1:])
        cache.put(keys["network"][0], _fake_result(("b",)), *keys["network"][1:])
        cache.get(keys["computer"][0])  # asked once: "network" is worth least
        cache.put(keys["storage"][0], _fake_result(("c",)), *keys["storage"][1:])
        assert cache.evictions == 1
        assert cache.get(keys["network"][0]) is None
        assert cache.get(keys["computer"][0]) == ("a",)
        assert cache.get(keys["storage"][0]) == ("c",)

    def test_ttl_expiry_on_logical_clock(self):
        system = build_system()
        ticks = [0]
        cache = ResultCache(capacity=4, ttl=10, clock=lambda: ticks[0])
        key, bound, match = _prepare(system, "(computer, *)")
        cache.put(key, _fake_result(), bound, match)
        ticks[0] = 9
        assert cache.get(key) == ("m",)
        ticks[0] = 10
        assert cache.get(key) is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_partial_results_never_cached(self):
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound, match = _prepare(system, "(computer, *)")
        assert not cache.put(key, _fake_result(complete=False), bound, match)
        assert cache.partial_skipped == 1
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_unfootprinted_results_never_cached(self):
        # No scan windows, no footprint: no write could ever invalidate it.
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound, match = _prepare(system, "(computer, *)")
        with collecting() as registry:
            assert not cache.put(key, _fake_result(scanned=()), bound, match)
        assert cache.unfootprinted_skipped == 1
        assert registry.snapshot()["counters"]["result_cache.unfootprinted_skipped"] == 1
        assert len(cache) == 0 and cache.get(key) is None

    def test_footprint_is_the_merged_scan_windows(self):
        system = build_system()
        cache = ResultCache(capacity=4)
        key, bound, match = _prepare(system, "(computer, *)")
        cache.put(key, _fake_result(scanned=[(40, 49), (10, 19), (20, 25)]), bound, match)
        assert _entries(cache)[key].ranges == ((10, 25), (40, 49))

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl=0)

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

    def test_a_write_whose_key_fails_the_query_keeps_the_entry(self):
        # At 8 bits "computation" quantizes to the coordinates of "computer":
        # inside the region of (computer, *), and never an answer to it.
        system = build_system()
        space = system.space
        assert space.region("(computer, *)").contains_point(
            space.coordinates(("computation", "memory"))
        )
        cold = system.query("(computer, *)")
        system.publish(("computation", "memory"), payload="near")
        assert system.unpublish(("computation", "memory"), payload="near") == 1
        system.publish_many([("computation", "storage"), ("compute", "memory")])
        assert system.result_cache.invalidations == 0
        hit = system.query("(computer, *)")
        assert hit.stats.result_cache_hit
        assert [id(e) for e in hit.matches] == [id(e) for e in cold.matches]

    def test_graceful_churn_keeps_every_entry(self):
        # Joins, leaves and identifier moves hand elements over one for one:
        # no answer changes, so no entry drops, and every hit stays exact.
        system = build_system()
        queries = ("(computer, *)", "(storage, *)", "(*, net*)")
        for query in queries:
            system.query(query)
        ids = system.overlay.node_ids()
        moved = system.add_node(
            next(i for i in range(system.overlay.space) if i not in ids)
        )
        moved += system.remove_node(ids[3])
        moved += system.change_node_id(ids[6], (ids[5] + ids[6]) // 2)[0]  # shrinks
        moved += system.change_node_id(ids[8], (ids[8] + ids[9]) // 2)[0]  # grows
        assert moved
        cache = system.result_cache
        assert len(cache) == len(queries) and cache.invalidations == 0
        for query in queries:
            res = system.query(query)
            assert res.stats.result_cache_hit
            assert sorted(str(e.payload) for e in res.matches) == sorted(
                str(e.payload) for e in system.brute_force_matches(query)
            )

    def test_last_node_leaving_empties_the_cache(self):
        system = build_system(n_nodes=2)
        system.query("(computer, *)")
        first, last = system.overlay.node_ids()
        system.remove_node(first)
        assert len(system.result_cache) == 1  # handed over: still the answer
        system.remove_node(last)  # nobody to hand the elements to
        assert len(system.result_cache) == 0 and system.total_elements() == 0
        system.add_node(last)
        res = system.query("(computer, *)")
        assert not res.stats.result_cache_hit and res.matches == []

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
        key, bound, match = _prepare(system, "(computer, *)")
        cache.put(key, _fake_result(), bound, match)
        low = _entries(cache)[key].ranges[0][0]
        assert cache.invalidate_range(low, low) == 1
        assert len(cache) == 0
        cache.put(key, _fake_result(), bound, match)
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

    @pytest.mark.parametrize("path", ["query", "sync", "asyncio"])
    def test_a_hit_refuses_a_non_member_origin_like_a_miss(self, path):
        system = build_system(n_nodes=16, cache=8)

        def ask(origin):
            if path == "query":
                return system.query("(computer, data)", origin=origin)
            transport = (SyncTransport if path == "sync" else AsyncioTransport)(system)
            return asyncio.run(transport.submit("(computer, data)", origin=origin))

        ids = system.overlay.node_ids()
        ask(ids[0])
        cache = system.result_cache
        (entry,) = _entries(cache).values()
        # A departed node whose segment the entry's footprint misses: the
        # entry outlives it on either side of graceful churn.
        gone = next(
            node for node in ids[1:]
            if not any(entry.overlaps(*seg) for seg in system._owned_segments(node))
        )
        system.remove_node(gone)
        assert ask(ids[0]).stats.result_cache_hit
        lookups = cache.lookups
        with pytest.raises(EngineError, match=f"origin {gone} is not a live node"):
            ask(gone)
        cache.clear()
        with pytest.raises(EngineError, match=f"origin {gone} is not a live node"):
            ask(gone)
        assert cache.lookups == lookups  # refused before the lookup, both times


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
                    cache.put(("k", n), _random_result(rng, size), _ANYWHERE, _ANY)
                for _ in range(30):
                    live = {key: e.ranges for key, e in _entries(cache).items()}
                    kind = rng.randrange(3)
                    if kind == 0:
                        points = [_random_index(rng, live, size)]
                        cache.invalidate_point(points[0], ("any",))
                    elif kind == 1:
                        points = [_random_index(rng, live, size) for _ in range(3)]
                        cache.invalidate_points(points, [("any",)] * 3)
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
                    assert set(live) - set(_entries(cache)) == want

    def test_point_invalidation_confirms_with_the_query(self):
        system = build_system()
        key, bound, match = _prepare(system, "(computer, *)")
        cache = ResultCache(capacity=4)
        cache.put(key, _fake_result(scanned=[(0, 99)]), bound, match)
        # In the footprint and in the region, but not an answer to the query:
        assert cache.invalidate_point(50, ("computation", "memory")) == 0
        assert cache.invalidate_points([50, 60], [("compute", "x"), ("comp", "y")]) == 0
        assert cache.invalidate_point(150, ("computer", "memory")) == 0  # outside
        assert cache.invalidate_point(50, ("computer", "memory")) == 1

    def test_nothing_outlives_its_entry(self):
        """2 000 random put / get / expire / invalidate / clear steps: after
        each, every weight is its key's aged lookups × messages, every
        eviction took a least-weight entry (the oldest among equals), and
        the entries, the aliases and the bucket index agree."""
        rng = random.Random(11)
        ticks = [0]
        cache = ResultCache(capacity=8, ttl=40, clock=lambda: ticks[0])
        size = 1 << 16
        asked, lookups, refused = {}, 0, 0
        for step in range(2000):
            ticks[0] += 1
            action = rng.randrange(9)
            n = rng.randrange(16)
            if action < 4:  # files; beyond capacity 8 it evicts
                key = ("k", n)
                alias = ("text", n) if rng.random() < 0.7 else None
                result = _random_result(rng, size, messages=rng.choice([0, 1, 4, 30, 60]))
                weight = asked.get(key, 0) * max(result.stats.messages, 1)
                others = [e for k, e in _entries(cache).items() if k != key]
                victim = min(others, key=lambda e: e.weight) if len(others) >= 8 else None
                evictions = cache.evictions
                filed = cache.put(key, result, _ANYWHERE, _parity(n), alias)
                assert cache.evictions == evictions + (victim is not None)
                if victim is not None and weight < victim.weight:
                    refused += 1
                    assert not filed and key not in _entries(cache)
                    assert alias is None or cache.aliased(alias) is None
                else:
                    assert filed and _entries(cache)[key].weight == weight
                    assert victim is None or victim.key not in _entries(cache)
            elif action < 6:  # lookups count, and expire what is older than the TTL
                cache.get(("k", n))
                asked[("k", n)] = asked.get(("k", n), 0) + 1
                lookups += 1
                if lookups % 80 == 0:  # ages every 10 × capacity lookups
                    asked = {k: c // 2 for k, c in asked.items() if c // 2}
            elif action == 6:
                cache.invalidate_point(rng.randrange(size), (rng.randrange(2),))
            elif action == 7:
                low = rng.randrange(size)
                cache.invalidate_range(low, low + rng.randrange(size >> 4))
            elif rng.random() < 0.1:
                cache.clear()
            live = _entries(cache)
            assert all(key == entry.key for key, entry in live.items())
            assert len(cache) == len(live) <= 8
            for key, entry in live.items():
                assert entry.weight == asked.get(key, 0) * max(entry.messages, 1)
            for alias, (_, key) in cache._aliases.items():
                assert live[key].alias == alias
            assert len(cache._aliases) == sum(e.alias is not None for e in live.values())
            ids = set(map(id, live.values()))
            for group in cache._buckets.values():
                assert all(id(entry) in ids for entry in group)
            shift = cache._shift
            for entry in live.values():
                for low, high in entry.ranges:
                    for bucket in range(low >> shift, (high >> shift) + 1):
                        assert entry in cache._buckets.get(bucket, ())
        assert cache.evictions > refused > 0
        assert cache.expirations and cache.invalidations and lookups >= 2 * 80


class TestEvictionPolicy:
    """A full cache gives up the entry worth least: its query's recent
    lookups times the messages its run cost, the oldest filed among equals."""

    def _filled(self, capacity, hit):
        cache = ResultCache(capacity=capacity)
        for n in range(capacity):
            cache.put(("k", n), _fake_result(), _ANYWHERE, _ANY)
        for n in hit:
            assert cache.get(("k", n)) is not None
        return cache

    def test_a_once_seen_entry_goes_before_a_re_hit_one(self):
        # ("k", 0) was filed first and hit once; four one-offs follow.  Plain
        # LRU would evict it on the fourth; here the one-offs go, oldest first.
        cache = self._filled(4, hit=[0])
        for n in range(4, 8):
            cache.put(("k", n), _fake_result(), _ANYWHERE, _ANY)
        assert set(_entries(cache)) == {("k", 0), ("k", 5), ("k", 6), ("k", 7)}
        assert cache.evictions == 4
        assert cache.get(("k", 0)) is not None

    def test_eviction_takes_the_least_weight_then_the_oldest(self):
        # Every entry hit 1–3 times at 7 messages: weights 7, 14 and 21.
        cache = self._filled(10, hit=[n for n in range(10) for _ in range(n % 3 + 1)])
        assert [e.weight for e in _entries(cache).values()] == [7, 14, 21] * 3 + [7]
        for n in (10, 11):  # asked twice: 14 outweighs 7, so the oldest 7 goes
            _ask(cache, ("k", n), times=2)
        assert [("k", n) in _entries(cache) for n in (0, 3, 6, 9)] == [
            False, False, True, True
        ]
        # Zero messages weigh as one: worth 1, 2, then 3 < 7, so each of the
        # three misses is refused in turn.
        assert not _ask(cache, ("k", 12), times=3, messages=0)
        assert len(cache) == 10 and cache.evictions == 2 + 3

    def test_capacity_one_keeps_the_weightier_entry(self):
        cache = self._filled(1, hit=[0])  # weight 7
        assert not cache.put(("k", 1), _fake_result(), _ANYWHERE, _ANY)  # weight 0
        assert set(_entries(cache)) == {("k", 0)}
        # Asked once it ties at 7, and the older entry goes; the hit makes 14.
        assert _ask(cache, ("k", 1), times=2)
        assert set(_entries(cache)) == {("k", 1)} and cache.evictions == 2
        assert _entries(cache)[("k", 1)].weight == 14

    def test_an_expensive_query_asked_once_outlives_a_cheap_one(self):
        # Filed first, so recency alone would evict it; its 60 messages
        # outweigh the later query's 4.
        cache = ResultCache(capacity=2)
        for n, messages in ((0, 60), (1, 4), (2, 10)):
            assert _ask(cache, ("k", n), messages=messages)
        assert set(_entries(cache)) == {("k", 0), ("k", 2)}
        assert cache.get(("k", 0)) is not None and cache.get(("k", 1)) is None

    def test_an_entry_no_longer_asked_ages_out(self):
        # Capacity 4 ages every 40 lookups.  ("k", "old") is asked 31 times
        # and then never again while three other queries are asked every
        # round, beside a cheap one-off per round.  Each aging halves its
        # count, so it leaves at the 31 .bit_length() == 5th aging, once its
        # weight is 0: until then every one-off is refused.
        cache = ResultCache(capacity=4)
        old = ("k", "old")
        _ask(cache, old, times=31, messages=50)
        for n in range(200):
            for hot in ("a", "b", "c"):
                _ask(cache, ("k", hot), messages=5)
            filed = _ask(cache, ("k", n), messages=2)
            if old not in _entries(cache):
                break
            assert not filed
        assert filed and cache.lookups // 40 == 5
        assert set(_entries(cache)) == {("k", "a"), ("k", "b"), ("k", "c"), ("k", n)}

    def test_a_put_worth_least_is_refused_and_leaves_no_alias(self):
        cache = self._filled(2, hit=[0, 1])  # weights 7 and 7
        cache.get(("k", "new"))
        result = _fake_result(messages=6)  # asked once: weight 6
        with collecting() as registry:
            assert not cache.put(("k", "new"), result, _ANYWHERE, _ANY, alias="text")
        assert registry.snapshot()["counters"]["result_cache.evictions"] == 1
        assert cache.evictions == 1 and cache.aliased("text") is None
        assert set(_entries(cache)) == {("k", 0), ("k", 1)}
        assert cache.get(("k", "new")) is None


def _ask(cache, key, times=1, messages=7):
    """Look ``key`` up ``times`` times, filing a miss as the system does;
    whether the last lookup found or filed an entry."""
    for _ in range(times):
        if cache.get(key) is None:
            filed = cache.put(key, _fake_result(messages=messages), _ANYWHERE, _ANY)
        else:
            filed = True
    return filed


def _entries(cache):
    """Every live entry by key, oldest filed first."""
    return dict(cache._entries)


def _ANY(key):
    return True


def _parity(n):
    return lambda key: key[0] % 2 == n % 2


_ANYWHERE = BoundQuery(None, Region.from_bounds([(0, 1 << 16), (0, 1 << 16)]))


def _random_result(rng, size, messages=7):
    windows = []
    for _ in range(rng.randrange(1, 12)):
        low = rng.randrange(size)
        windows.append((low, min(size - 1, low + rng.choice([0, 3, size >> 10, size >> 4]))))
    return _fake_result(messages=messages, scanned=windows)


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
