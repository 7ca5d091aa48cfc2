"""Cross-backend equivalence: every backend is scan-identical to LocalStore.

The NodeStore contract (``repro/store/base.py`` module docstring) promises
that the same publish sequence produces byte-identical scan output — same
elements, same order — through every backend.  ``LocalStore`` is the
contract-defining reference; these tests drive randomized publish/scan/pop
sequences through all backends in lockstep and compare against it.
"""

from __future__ import annotations

import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store import LocalStore, SQLiteStore, StoredElement
from repro.store.base import ELEMENT_BYTES

BACKENDS = ["local", "sqlite", "sqlite-file"]


def make_store(backend: str, tmp_path=None):
    if backend == "local":
        return LocalStore()
    if backend == "sqlite":
        return SQLiteStore(batch_size=3)  # tiny batches: flush paths covered
    if backend == "sqlite-file":
        assert tmp_path is not None
        return SQLiteStore(path=str(tmp_path), node_id=7)
    raise AssertionError(backend)


def element(index, kid=0, payload=None):
    return StoredElement(index=index, key=(f"k{kid}",), payload=payload)


# Publish sequences as (index, key-id) pairs; payloads are sequence numbers
# so every element is distinguishable and ordering divergence is visible.
adds_strategy = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 4)), min_size=0, max_size=60
)
ranges_strategy = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 63)), min_size=0, max_size=6
)


def fill(store, adds):
    for n, (index, kid) in enumerate(adds):
        store.add(element(index, kid, payload=n))


def fingerprint(elements):
    return [(e.index, e.key, e.payload) for e in elements]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestScanEquivalence:
    @given(adds=adds_strategy, ranges=ranges_strategy)
    @settings(max_examples=60, deadline=None)
    def test_scan_ranges_identical_to_local(self, tmp_path_factory, adds, ranges):
        reference = LocalStore()
        fill(reference, adds)
        want = fingerprint(reference.scan_ranges(ranges))
        want_all = fingerprint(reference.all_elements())
        for name in BACKENDS:
            if name == "local":
                continue
            store = make_store(name, tmp_path_factory.mktemp("db"))
            try:
                fill(store, adds)
                assert fingerprint(store.scan_ranges(ranges)) == want, name
                assert fingerprint(store.all_elements()) == want_all, name
                assert store.element_count == reference.element_count, name
                assert store.key_count == reference.key_count, name
                assert store.indices() == reference.indices(), name
            finally:
                store.close()

    @given(adds=adds_strategy)
    @settings(max_examples=40, deadline=None)
    def test_bulk_equals_incremental(self, tmp_path_factory, adds):
        elements = [element(i, k, payload=n) for n, (i, k) in enumerate(adds)]
        for name in BACKENDS:
            one = make_store(name, tmp_path_factory.mktemp("a"))
            two = make_store(name, tmp_path_factory.mktemp("b"))
            try:
                for e in elements:
                    one.add(e)
                two.add_sorted_bulk(list(elements))
                assert fingerprint(one.all_elements()) == fingerprint(
                    two.all_elements()
                ), name
                assert one.key_count == two.key_count, name
                assert one.element_count == two.element_count, name
            finally:
                one.close()
                two.close()

    def test_same_index_multimap_order(self, tmp_path, backend):
        """Key groups in first-publish order, publish order within a group."""
        store = make_store(backend, tmp_path)
        try:
            store.add(element(5, kid=0, payload="a0"))
            store.add(element(5, kid=1, payload="b0"))
            store.add(element(5, kid=0, payload="a1"))
            store.add(element(2, kid=9, payload="z"))
            got = [(e.key[0], e.payload) for e in store.scan_range(0, 63)]
            assert got == [("k9", "z"), ("k0", "a0"), ("k0", "a1"), ("k1", "b0")]
        finally:
            store.close()

    def test_overlapping_ranges_yield_each_element_once(self, tmp_path, backend):
        """Regression: overlapping input ranges must not duplicate output."""
        store = make_store(backend, tmp_path)
        try:
            fill(store, [(1, 0), (4, 0), (4, 1), (8, 0), (15, 0)])
            got = [e.index for e in store.scan_ranges([(0, 10), (3, 20), (4, 4)])]
            assert got == [1, 4, 4, 8, 15]
        finally:
            store.close()

    def test_scan_identity_is_stable(self, tmp_path, backend):
        """Re-scanning yields the *same objects* (contract point 3)."""
        store = make_store(backend, tmp_path)
        try:
            fill(store, [(3, 0), (7, 1), (7, 2), (40, 0)])
            first = list(store.scan_ranges([(0, 63)]))
            second = list(store.scan_ranges([(0, 63)]))
            assert all(a is b for a, b in zip(first, second))
        finally:
            store.close()


class TestPopRange:
    @given(
        adds=adds_strategy,
        bounds=st.tuples(st.integers(0, 63), st.integers(0, 63)).map(sorted),
    )
    @settings(max_examples=40, deadline=None)
    def test_pop_matches_local(self, tmp_path_factory, adds, bounds):
        low, high = bounds
        reference = LocalStore()
        fill(reference, adds)
        want_moved = fingerprint(reference.pop_range(low, high))
        want_left = fingerprint(reference.all_elements())
        for name in BACKENDS:
            if name == "local":
                continue
            store = make_store(name, tmp_path_factory.mktemp("db"))
            try:
                fill(store, adds)
                assert fingerprint(store.pop_range(low, high)) == want_moved, name
                assert fingerprint(store.all_elements()) == want_left, name
                assert store.key_count == reference.key_count, name
                assert not store.has_any_in_range(low, high), name
            finally:
                store.close()

    def test_pop_invalid_range_raises(self, tmp_path, backend):
        store = make_store(backend, tmp_path)
        try:
            with pytest.raises(StoreError):
                store.pop_range(5, 1)
        finally:
            store.close()


class TestSnapshotRestore:
    @given(adds=adds_strategy)
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, tmp_path_factory, adds):
        for name in BACKENDS:
            store = make_store(name, tmp_path_factory.mktemp("db"))
            try:
                fill(store, adds)
                snap = store.snapshot()
                store.clear()
                store.add_sorted_bulk(snap)
                assert fingerprint(store.all_elements()) == fingerprint(snap), name
                assert store.element_count == len(snap), name
            finally:
                store.close()

    def test_snapshots_are_backend_portable(self, tmp_path, backend):
        source = LocalStore()
        fill(source, [(9, 0), (2, 1), (9, 1), (9, 0), (55, 3)])
        target = make_store(backend, tmp_path)
        try:
            target.add_sorted_bulk(source.snapshot())
            assert fingerprint(target.all_elements()) == fingerprint(
                source.all_elements()
            )
            assert target.key_count == source.key_count
        finally:
            target.close()


class TestAccounting:
    def test_stats_shape(self, tmp_path, backend):
        store = make_store(backend, tmp_path)
        try:
            fill(store, [(3, 0), (3, 0), (8, 1)])
            stats = store.stats()
            assert stats.backend == store.backend_name
            assert stats.elements == 3
            assert stats.keys == 2
            assert stats.memory_bytes > 0
            assert isinstance(stats.detail, dict)
        finally:
            store.close()

    def test_local_memory_bytes_against_a_hand_computed_store(self):
        """Two pointer lists plus one slotted object per element; what an
        element points to (key tuple, shared words, payload) is not counted."""
        n = 1000
        store, bare = LocalStore(), LocalStore()
        store.add_sorted_bulk(
            [element(i % 97, i % 5, payload="x" * 1000) for i in range(n)]
        )
        bare.add_sorted_bulk([element(i % 97, i % 5) for i in range(n)])
        assert ELEMENT_BYTES == sys.getsizeof(next(store.all_elements()))
        lists = sys.getsizeof(store._indices) + sys.getsizeof(store._elements)
        assert lists >= 2 * n * struct.calcsize("P")
        assert store.stats().memory_bytes == lists + n * ELEMENT_BYTES
        assert store.stats().memory_bytes == bare.stats().memory_bytes

    def test_metric_parity(self, tmp_path_factory):
        """The same op sequence produces identical counters on every backend."""
        from repro.obs import collecting

        def run(store):
            with collecting() as registry:
                fill(store, [(3, 0), (9, 1), (9, 2)])
                store.add_sorted_bulk([element(20, 0, payload="x")])
                list(store.scan_ranges([(0, 10), (5, 30)]))
                list(store.scan_ranges([]))
                store.pop_range(0, 5)
                return registry.snapshot()

        reference = run(LocalStore())
        assert reference["counters"]["store.range_scans"] == 1
        for name in BACKENDS:
            if name == "local":
                continue
            store = make_store(name, tmp_path_factory.mktemp("db"))
            try:
                assert run(store) == reference, name
            finally:
                store.close()

    def test_clear_resets_counts(self, tmp_path, backend):
        store = make_store(backend, tmp_path)
        try:
            fill(store, [(1, 0), (2, 1)])
            store.clear()
            assert store.element_count == 0
            assert store.key_count == 0
            assert store.indices() == []
            assert list(store.all_elements()) == []
        finally:
            store.close()


class TestSQLitePersistence:
    def test_shared_file_isolates_nodes(self, tmp_path):
        """Two stores on one database file see only their own rows."""
        path = str(tmp_path / "ring.sqlite")
        a = SQLiteStore(path=path, node_id=1)
        b = SQLiteStore(path=path, node_id=2)
        try:
            a.add(element(5, 0, payload="a"))
            b.add(element(5, 0, payload="b"))
            assert [e.payload for e in a.scan_range(0, 63)] == ["a"]
            assert [e.payload for e in b.scan_range(0, 63)] == ["b"]
        finally:
            a.close()
            b.close()

    def test_reopen_recovers_rows(self, tmp_path):
        path = str(tmp_path / "ring.sqlite")
        store = SQLiteStore(path=path, node_id=3)
        fill(store, [(4, 0), (4, 1), (30, 2)])
        store.close()
        reopened = SQLiteStore(path=path, node_id=3)
        try:
            assert fingerprint(reopened.all_elements()) == [
                (4, ("k0",), 0), (4, ("k1",), 1), (30, ("k2",), 2),
            ]
            assert reopened.key_count == 3
        finally:
            reopened.close()

    def test_memory_budget_bounds_row_cache(self, tmp_path):
        store = SQLiteStore(path=str(tmp_path), memory_budget_bytes=1, batch_size=2)
        try:
            fill(store, [(i, i % 3) for i in range(20)])
            # The budget evicts cached rows; scans still return correct data
            # (identity stability is only promised while rows stay cached).
            got = fingerprint(store.scan_ranges([(0, 63)]))
            assert got == [(i, (f"k{i % 3}",), i) for i in range(20)]
        finally:
            store.close()
