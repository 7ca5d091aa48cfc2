"""Tests for the per-node LocalStore."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreError
from repro.store import LocalStore, StoredElement
from repro.store.base import normalize_ranges


def element(index, key=("a",), payload=None):
    return StoredElement(index=index, key=key, payload=payload)


class TestAdd:
    def test_counts(self):
        store = LocalStore()
        store.add(element(5, key=("a", "b")))
        store.add(element(5, key=("a", "b")))  # same key, second element
        store.add(element(5, key=("a", "c")))  # same index, new key
        store.add(element(9, key=("d", "e")))
        assert store.key_count == 3
        assert store.element_count == 4
        assert len(store) == 4

    def test_bulk_matches_incremental(self):
        elements = [element(i % 7, key=(str(i % 5),)) for i in range(40)]
        a, b = LocalStore(), LocalStore()
        for e in elements:
            a.add(e)
        b.add_sorted_bulk(list(elements))
        assert a.key_count == b.key_count
        assert a.element_count == b.element_count
        assert a.indices() == b.indices()
        assert list(a.all_elements()) == list(b.all_elements())


class TestBulkSplice:
    """``add_sorted_bulk`` splices a batch whose index span holds no stored
    index, files any other batch per element, and either way leaves the
    store as ``add`` per element would."""

    BATCHES = {
        "above": ([element(30, ("b",)), element(25, ("c",)), element(25, ("d",)),
                   element(25, ("c",), payload=1)], 0),
        "between": ([element(15, ("b",)), element(12, ("c",))], 0),
        "straddling": ([element(15, ("b",)), element(5, ("c",))], 2),
    }

    @pytest.mark.parametrize("name", sorted(BATCHES))
    def test_splice_rule(self, name):
        batch, per_element_adds = self.BATCHES[name]
        bulk, reference = LocalStore(), LocalStore()
        for store in (bulk, reference):
            for e in (element(10), element(20), element(20, ("z",))):
                store.add(e)
        for e in batch:
            reference.add(e)
        calls = []
        add = bulk.add
        bulk.add = lambda e: (calls.append(e), add(e))
        bulk.add_sorted_bulk(list(batch))
        assert len(calls) == per_element_adds
        assert bulk._indices == reference._indices
        assert bulk._elements == reference._elements
        assert bulk.key_count == reference.key_count


class TestScan:
    def setup_method(self):
        self.store = LocalStore()
        for i in [3, 7, 7, 10, 20]:
            self.store.add(element(i, key=(f"k{i}", str(i))))

    def test_scan_range_inclusive(self):
        got = [e.index for e in self.store.scan_range(7, 10)]
        assert got == [7, 7, 10]

    def test_scan_empty_range(self):
        assert list(self.store.scan_range(11, 19)) == []

    def test_scan_inverted_range(self):
        assert list(self.store.scan_range(10, 7)) == []

    def test_scan_order(self):
        got = [e.index for e in self.store.scan_range(0, 100)]
        assert got == sorted(got)

    def test_has_any_in_range(self):
        assert self.store.has_any_in_range(5, 8)
        assert not self.store.has_any_in_range(11, 19)
        assert self.store.has_any_in_range(20, 20)

    def test_key_count_at(self):
        assert self.store.key_count_at(7) == 1
        assert self.store.key_count_at(99) == 0


class TestScanRanges:
    """Batched multi-range scan ≡ repeated single-range scans."""

    def _store(self, indices):
        store = LocalStore()
        for n, i in enumerate(indices):
            store.add(element(i, key=(f"k{n}",)))
        return store

    def test_disjoint_sorted_ranges(self):
        store = self._store([3, 7, 7, 10, 20, 31])
        ranges = [(0, 5), (9, 12), (20, 40)]
        batched = [e.index for e in store.scan_ranges(ranges)]
        sequential = [e.index for lo, hi in ranges for e in store.scan_range(lo, hi)]
        assert batched == sequential == [3, 10, 20, 31]

    def test_empty_and_inverted_ranges_skipped(self):
        store = self._store([5, 6])
        assert list(store.scan_ranges([])) == []
        assert list(store.scan_ranges([(9, 2)])) == []
        assert [e.index for e in store.scan_ranges([(9, 2), (5, 5)])] == [5]

    def test_overlapping_ranges_select_exactly_once(self):
        store = self._store([1, 4, 4, 8, 15])
        ranges = [(0, 10), (3, 20)]  # sorted by low, overlapping
        batched = [e.index for e in store.scan_ranges(ranges)]
        # Overlapping ranges are coalesced before scanning: each element is
        # selected exactly once, as if the covered span were scanned directly.
        union = [e.index for e in store.scan_range(0, 20)]
        assert batched == union == [1, 4, 4, 8, 15]

    def test_single_metric_per_batch(self):
        from repro.obs import collecting

        store = self._store([2, 9, 14])
        with collecting() as registry:
            list(store.scan_ranges([(0, 3), (8, 10), (13, 20)]))
            list(store.scan_ranges([]))  # nothing scanned: no metric
        assert registry.counter("store.range_scans").value == 1

    @given(
        st.lists(st.integers(0, 63), min_size=0, max_size=40),
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 63)).map(
                lambda t: (min(t), max(t))
            ),
            min_size=0,
            max_size=8,
        ),
    )
    @settings(max_examples=100)
    def test_equivalent_to_scanning_normalized_ranges(self, indices, ranges):
        ranges = sorted(ranges)  # cluster piece lists arrive sorted by low
        store = self._store(indices)
        batched = [(e.index, e.key) for e in store.scan_ranges(ranges)]
        # The contract: scan_ranges ≡ repeated scan_range over the
        # *normalized* (sorted, coalesced) ranges — exactly-once selection.
        sequential = [
            (e.index, e.key)
            for lo, hi in normalize_ranges(ranges)
            for e in store.scan_range(lo, hi)
        ]
        assert batched == sequential


class TestPopRange:
    def test_pop_moves_everything_in_range(self):
        store = LocalStore()
        for i in range(10):
            store.add(element(i, key=(str(i),)))
        moved = store.pop_range(3, 6)
        assert sorted(e.index for e in moved) == [3, 4, 5, 6]
        assert store.key_count == 6
        assert list(store.scan_range(3, 6)) == []

    def test_pop_empty(self):
        store = LocalStore()
        assert store.pop_range(0, 100) == []

    def test_pop_invalid(self):
        with pytest.raises(StoreError):
            LocalStore().pop_range(5, 1)

    @given(st.lists(st.integers(0, 63), min_size=0, max_size=50), st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=100)
    def test_pop_then_disjoint(self, indices, a, b):
        low, high = sorted((a, b))
        store = LocalStore()
        for n, i in enumerate(indices):
            store.add(element(i, key=(str(n),)))
        total = store.element_count
        moved = store.pop_range(low, high)
        assert all(low <= e.index <= high for e in moved)
        assert store.element_count + len(moved) == total
        assert not store.has_any_in_range(low, high)


class TestSplitPoint:
    def test_none_for_small_stores(self):
        store = LocalStore()
        assert store.split_point_by_load() is None
        store.add(element(4))
        assert store.split_point_by_load() is None

    def test_split_balances_keys(self):
        store = LocalStore()
        for i in range(10):
            store.add(element(i, key=(str(i),)))
        split = store.split_point_by_load()
        below = sum(1 for e in store.all_elements() if e.index <= split)
        assert 4 <= below <= 6

    def test_split_is_strictly_internal(self):
        store = LocalStore()
        store.add(element(2))
        store.add(element(9, key=("z",)))
        split = store.split_point_by_load()
        assert split < 9  # handing [min, split] away must not empty the store

    def test_skewed_load(self):
        store = LocalStore()
        for n in range(50):
            store.add(element(1, key=(str(n),)))
        store.add(element(30, key=("tail",)))
        assert store.split_point_by_load() == 1
