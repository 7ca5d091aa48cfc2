"""Result cache: memoized complete query results at the initiator.

The plan cache (:mod:`repro.core.plancache`) memoizes pure geometry and
therefore never invalidates.  One tier above it sits this module's
:class:`ResultCache`: an initiator-side cost-weighted, TTL-bounded cache
of *complete* :class:`~repro.core.metrics.QueryResult` match sets.  Unlike a
plan, a result depends on the stored data — so the hard part is
invalidation, and the contract here is that an entry drops exactly when its
answer may have changed:

* **The footprint is the run's.**  An entry is filed with the merged scan
  windows of the run that produced it
  (:attr:`~repro.core.metrics.QueryResult.scanned_ranges`).  Every index of
  every cluster is scanned by exactly the node that owns it, so the union
  of a complete run's windows contains the region's whole curve image: a
  data change outside it cannot change the answer.  Filing an entry
  resolves no geometry.  A result with no footprint could never be
  invalidated and is refused (``result_cache.unfootprinted_skipped``).
* **Publishes and removals** drop exactly the entries whose answer they
  change.  The footprint prefilters, then the query's compiled match
  predicate (:meth:`~repro.keywords.space.KeywordSpace.matcher`) decides on
  the written key: an element enters or leaves an answer iff its key
  satisfies the query, so a write whose key fails the query — even one
  inside the query's region — leaves the entry alone.
* **Membership.**  Graceful joins, leaves and identifier moves hand stored
  elements over object for object, so no answer changes and the cache is
  not told.  Crashes lose data: the system drops every entry whose
  footprint overlaps the lost curve-index segment
  (:meth:`ResultCache.invalidate_range`), and the last node leaving drops
  everything (:meth:`ResultCache.invalidate_all`).
* **A write visits only the entries it can touch.**  Footprints are indexed
  by coarse curve bucket (the top :data:`_BUCKET_BITS` bits of the widest
  index filed so far), so an invalidation looks at the entries sharing its
  buckets and confirms each with a bisect on the entry's sorted ranges.
* **Partial results** (``QueryResult.complete == False``, produced by the
  fault plane) are never cached — a stale-guard counter
  (``result_cache.partial_skipped``) records each refusal.
* **A repeated text query is a lookup.**  The miss that files an entry may
  name the query text it came from; :meth:`ResultCache.aliased` then maps
  that text straight to the bound query and key.  Parsing and covering are
  pure functions of an immutable space, so an alias is never stale; it
  lives exactly as long as the entry it names.
* **A full cache gives up the answer cheapest to do without.**  Every
  lookup of a key counts, hit or miss, and every ``_AGING_LOOKUPS *
  capacity`` lookups all counts are halved, so a query no longer asked
  loses its weight geometrically.  An entry's *weight* is its key's recent
  lookups times the messages its run cost (the paper's unit, and
  deterministic, unlike wall time).  A full cache evicts the entry of least
  weight, the oldest filed among equals; a new entry that would be that
  entry is not filed at all.

Entries expire after ``ttl`` seconds when a TTL is configured; the clock is
injectable so simulations can run on logical time.  Hits, misses,
evictions, expirations, invalidations, and the messages a hit avoided
re-sending are published to the active metrics registry under
``result_cache.*``, and each :class:`~repro.core.metrics.QueryStats`
records whether its query was served from cache (``result_cache_hit``).
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.core.metrics import merge_index_ranges
from repro.obs import metrics as obs_metrics
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.regions import Region

__all__ = [
    "ResultCache",
    "result_key",
]

#: Width of the invalidation index: footprints are filed under the top
#: ``_BUCKET_BITS`` bits of the curve index, at most 1024 buckets.
_BUCKET_BITS = 10

#: Lookups per place between two agings of the lookup counts.
_AGING_LOOKUPS = 10


def result_key(
    curve: SpaceFillingCurve,
    region: Region,
    engine_name: str,
    params: Hashable = None,
    query: Any = None,
) -> tuple:
    """Canonical cache key for one query's result.

    Extends :func:`repro.core.plancache.plan_key` with the query's
    canonical text.  The plan cache can key on the region alone — plans
    are pure geometry — but a *result* also reflects the engine's exact
    match filter: at coarse bit resolutions two textually different
    queries (``(computer, *)`` vs ``(comp*, *)``) can quantize to the same
    canonical region yet keep different subsets of the scanned elements,
    so the key must separate them.
    """
    return (
        engine_name,
        params,
        str(query),
        curve.name,
        curve.dims,
        curve.order,
        region.canonical_key(),
    )


@dataclass(eq=False, slots=True)
class _Entry:
    """One cached result: the match tuple plus its invalidation footprint.

    Compared and hashed by identity: the bucket index holds entries.
    """

    key: tuple
    matches: tuple
    #: The producing run's merged scan windows — sorted, disjoint, inclusive
    #: — containing the region's whole curve image.
    ranges: tuple[tuple[int, int], ...]
    #: ``ranges``' low ends, for the bisect.
    lows: tuple[int, ...]
    #: The query's per-key match predicate, over normalized keys: decides
    #: whether a write inside the footprint changes the answer.
    match: Callable[[tuple], bool]
    stored_at: float
    #: Messages the original (uncached) execution spent; credited to the
    #: ``result_cache.messages_saved`` counter on every hit.
    messages: int
    #: The alias naming this entry (see :meth:`ResultCache.aliased`), if any.
    alias: Hashable = None
    #: Recent lookups of ``key`` times ``max(messages, 1)``: what a full
    #: cache would lose by evicting this entry.
    weight: int = 0

    def covers(self, index: int) -> bool:
        pos = bisect_right(self.lows, index)
        return pos > 0 and self.ranges[pos - 1][1] >= index

    def overlaps(self, low: int, high: int) -> bool:
        # Disjoint sorted ranges have sorted high ends too: the last range
        # starting at or before ``high`` is the only one that can reach it.
        pos = bisect_right(self.lows, high)
        return pos > 0 and self.ranges[pos - 1][1] >= low


class ResultCache:
    """Cost-weighted TTL cache of complete query results, invalidated exactly.

    Parameters
    ----------
    capacity:
        Maximum entries before eviction; a full cache evicts the entry whose
        recent lookups times messages is least.
    ttl:
        Seconds (by ``clock``) an entry stays valid, or None for no expiry.
    clock:
        Monotonic time source; injectable so tests and simulations can drive
        TTL on logical time.
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self.clock = clock
        #: Every entry, in filing order: ties in weight evict the oldest.
        self._entries: dict[tuple, _Entry] = {}
        #: key → its lookups, halved every ``_aging_period`` lookups.
        self._asked: dict[tuple, int] = {}
        self._aging_period = _AGING_LOOKUPS * capacity
        #: alias → ``(bound query, key)`` of a live entry.
        self._aliases: dict[Hashable, tuple] = {}
        #: ``index >> _shift`` → the entries whose footprint enters that
        #: bucket.  The cache is not told the curve's width: ``_shift`` grows
        #: (and the index is rebuilt) when a footprint reaches past bucket
        #: 1023, which settles within the first few entries filed.
        self._buckets: defaultdict[int, set[_Entry]] = defaultdict(set)
        self._shift = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        self.partial_skipped = 0
        self.unfootprinted_skipped = 0
        self.messages_saved = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _live(self) -> Iterable[_Entry]:
        """Every entry, oldest filed first."""
        return self._entries.values()

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    # ------------------------------------------------------------------
    # Lookup / install
    # ------------------------------------------------------------------
    def aliased(self, alias: Hashable) -> tuple | None:
        """``(bound query, key)`` of the live entry filed under ``alias``.

        The shortcut for a repeated text query: what the miss that filed
        the entry parsed, checked and covered, ready for :meth:`get`.  Not
        counted as a lookup.
        """
        return self._aliases.get(alias)

    def get(self, key: tuple) -> tuple | None:
        """The cached match tuple for ``key``, or None; counts the lookup.

        The lookup counts towards ``key``'s weight whether it hits or not,
        and a hit refreshes the entry's weight.  TTL is enforced here: an
        expired entry is dropped and reported as a miss (plus
        ``result_cache.expirations``).
        """
        self._asked[key] = count = self._asked.get(key, 0) + 1
        entry = self._entries.get(key)
        reg = obs_metrics.active()
        if entry is not None and self.ttl is not None:
            if self.clock() - entry.stored_at >= self.ttl:
                self._forget(entry)
                self.expirations += 1
                if reg is not None:
                    reg.counter("result_cache.expirations").inc()
                entry = None
        if entry is None:
            self.misses += 1
            if reg is not None:
                reg.counter("result_cache.misses").inc()
        else:
            entry.weight = count * max(entry.messages, 1)
            self.hits += 1
            self.messages_saved += entry.messages
            if reg is not None:
                reg.counter("result_cache.hits").inc()
                reg.counter("result_cache.messages_saved").inc(entry.messages)
        if not (self.hits + self.misses) % self._aging_period:
            self._age()
        return None if entry is None else entry.matches

    def _age(self) -> None:
        """Halve every lookup count, drop the zeros, reweigh every entry."""
        self._asked = asked = {
            key: count >> 1 for key, count in self._asked.items() if count > 1
        }
        for key, entry in self._entries.items():
            entry.weight = asked.get(key, 0) * max(entry.messages, 1)

    def put(
        self,
        key: tuple,
        result: Any,
        bound: Any,
        match: Callable[[tuple], bool],
        alias: Hashable = None,
    ) -> bool:
        """Install a *complete* result; refuses partial and unfootprinted ones.

        ``bound`` is the :class:`~repro.keywords.space.BoundQuery` the result
        answers and ``match`` its per-key predicate
        (:meth:`~repro.keywords.space.KeywordSpace.matcher`), which decides
        the writes inside the footprint; ``alias``, when given, is
        registered for :meth:`aliased` for as long as the entry lives.
        Returns True when the entry was cached: False for the stale guards
        below, and for an entry a full cache would evict first (counted as
        an eviction).

        The stale guards: a result with ``complete == False`` holds a
        certain *subset* of the exact answer, so caching it would replay the
        faults of one execution into every later lookup; a complete result
        with no ``scanned_ranges`` (not produced by an engine run) has no
        footprint, so no write could ever invalidate it.  Both are counted
        (``result_cache.partial_skipped`` /
        ``result_cache.unfootprinted_skipped``) and dropped instead.
        """
        if not getattr(result, "complete", True):
            return self._count("partial_skipped")
        ranges = merge_index_ranges(result.scanned_ranges)
        if not ranges:
            return self._count("unfootprinted_skipped")
        previous = self._entries.get(key)
        if previous is not None:
            self._forget(previous)
        entry = _Entry(
            key=key,
            matches=tuple(result.matches),
            ranges=ranges,
            lows=tuple([low for low, _ in ranges]),
            match=match,
            stored_at=self.clock(),
            messages=result.stats.messages,
            alias=alias,
            weight=self._asked.get(key, 0) * max(result.stats.messages, 1),
        )
        if len(self._entries) >= self.capacity:
            self._count("evictions")
            victim = min(self._entries.values(), key=attrgetter("weight"))
            if entry.weight < victim.weight:
                return False
            self._forget(victim)
        self._entries[key] = entry
        if alias is not None:
            self._aliases[alias] = (bound, key)
        if ranges[-1][1] >> self._shift >> _BUCKET_BITS:
            self._shift = ranges[-1][1].bit_length() - _BUCKET_BITS
            self._buckets.clear()
            for known in self._live():
                self._index(known)
        else:
            self._index(entry)
        return True

    def _count(self, counter: str) -> bool:
        """Add one to ``counter``, here and in the active registry; False."""
        setattr(self, counter, getattr(self, counter) + 1)
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter(f"result_cache.{counter}").inc()
        return False

    def _index(self, entry: _Entry) -> None:
        buckets, shift = self._buckets, self._shift
        for low, high in entry.ranges:
            for bucket in range(low >> shift, (high >> shift) + 1):
                buckets[bucket].add(entry)

    def _forget(self, entry: _Entry) -> None:
        """Unlink ``entry`` everywhere: its place, its alias, its buckets."""
        del self._entries[entry.key]
        self._aliases.pop(entry.alias, None)
        buckets, shift = self._buckets, self._shift
        for low, high in entry.ranges:
            for bucket in range(low >> shift, (high >> shift) + 1):
                buckets[bucket].discard(entry)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_point(self, index: int, key: Sequence[Any]) -> int:
        """Drop the entries a publish/remove of ``key`` at ``index`` changes.

        The footprint prefilters and each entry's match predicate decides on
        the written (normalized) key, exactly: a write whose key fails the
        query — even one landing inside its footprint and its region —
        leaves the entry alone.  Returns the number of entries dropped.
        """
        return self._drop(
            [
                entry
                for entry in self._buckets.get(index >> self._shift, ())
                if entry.covers(index) and entry.match(key)
            ]
        )

    def invalidate_points(
        self, indices: Sequence[int], keys: Sequence[Sequence[Any]]
    ) -> int:
        """Batch form of :meth:`invalidate_point`."""
        if not len(self):
            return 0
        buckets, shift = self._buckets, self._shift
        stale: set[_Entry] = set()
        for index, key in zip(indices, keys):
            index = int(index)
            for entry in buckets.get(index >> shift, ()):
                if entry not in stale and entry.covers(index) and entry.match(key):
                    stale.add(entry)
        return self._drop(stale)

    def invalidate_range(self, low: int, high: int) -> int:
        """Drop entries whose footprint overlaps the inclusive ``[low, high]``.

        Used when a crash loses a whole curve segment: there is no single
        key to test, so the footprint decides alone.  Returns the number of
        entries dropped.
        """
        if not len(self) or low > high:
            return 0
        buckets = self._buckets
        first, last = low >> self._shift, high >> self._shift
        if last - first >= len(buckets):
            # A segment wider than the occupied buckets (few-node rings).
            near: Iterable[_Entry] = self._live()
        else:
            near = {
                entry
                for bucket in range(first, last + 1)
                for entry in buckets.get(bucket, ())
            }
        return self._drop([entry for entry in near if entry.overlaps(low, high)])

    def invalidate_all(self) -> int:
        """Drop every entry (counted as invalidations, not evictions)."""
        return self._drop(list(self._live()))

    def _drop(self, stale: Iterable[_Entry]) -> int:
        count = 0
        for entry in stale:
            self._forget(entry)
            count += 1
        if count:
            self.invalidations += count
            reg = obs_metrics.active()
            if reg is not None:
                reg.counter("result_cache.invalidations").inc(count)
        return count

    def clear(self) -> None:
        """Drop all entries (counters are preserved, nothing is counted)."""
        self._entries.clear()
        self._aliases.clear()
        self._buckets.clear()
