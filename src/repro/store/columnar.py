"""NumPy columnar backend (registry name ``"columnar"``).

Elements live in two parallel columns: a sorted ``int64`` index array and an
object array of :class:`~repro.store.base.StoredElement` references in the
same order.  Range scans are two ``np.searchsorted`` bisections plus a
contiguous slice — no per-index dict hops — which is what makes large
stores (10^5–10^7 resident elements) scan at array speed.

Appends go to an amortized buffer and are merged into the columns every
``merge_every`` inserts (or before any read): the merge is one stable
argsort of the buffer plus one ``np.insert``, so *n* appends cost
``O(n log B + n·merges)`` instead of ``O(n log n)`` list insertions.

Ordering: the columns keep equal-index elements in arrival order (stable
sorts, and merged batches insert *after* existing equals), and scans regroup
each equal-index run by key on the way out — reproducing the
:class:`~repro.store.memory.LocalStore` multimap order exactly (contract
point 2 in :mod:`repro.store.base`).  Runs are almost always length 1
(index collisions come from quantization only), so the regroup is free in
practice.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.store.base import ELEMENT_BYTES, NodeStore, StoredElement, regroup_run

__all__ = ["ColumnarStore"]


class ColumnarStore(NodeStore):
    """Sorted-array columnar store with an amortized append buffer."""

    backend_name = "columnar"

    def __init__(self, node_id: int | None = None, merge_every: int = 4096) -> None:
        self._node_id = node_id
        self._merge_every = max(1, int(merge_every))
        self._idx = np.empty(0, dtype=np.int64)
        self._elems = np.empty(0, dtype=object)
        self._pending: list[StoredElement] = []
        self._element_count = 0
        #: Distinct (index, key) pairs; recomputed lazily after mutations.
        self._key_count_cache: int | None = 0
        self._merges = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, element: StoredElement) -> None:
        self._pending.append(element)
        self._element_count += 1
        self._key_count_cache = None
        if len(self._pending) >= self._merge_every:
            self._merge()
        self._count_added(1)

    def add_sorted_bulk(self, elements: list[StoredElement]) -> None:
        self._pending.extend(elements)
        self._element_count += len(elements)
        self._key_count_cache = None
        self._merge()
        self._count_added(len(elements))

    def pop_range(self, low: int, high: int) -> list[StoredElement]:
        self._check_range(low, high)
        self._merge()
        lo = int(np.searchsorted(self._idx, low, side="left"))
        hi = int(np.searchsorted(self._idx, high, side="right"))
        moved = list(self._iter_runs(lo, hi))
        if moved:
            keep = np.ones(self._idx.size, dtype=bool)
            keep[lo:hi] = False
            self._idx = self._idx[keep]
            self._elems = self._elems[keep]
            self._element_count -= len(moved)
            self._key_count_cache = None
        self._count_moved(len(moved))
        return moved

    def clear(self) -> None:
        self._idx = np.empty(0, dtype=np.int64)
        self._elems = np.empty(0, dtype=object)
        self._pending.clear()
        self._element_count = 0
        self._key_count_cache = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _scan_span(self, low: int, high: int) -> Iterator[StoredElement]:
        self._merge()
        lo = int(np.searchsorted(self._idx, low, side="left"))
        hi = int(np.searchsorted(self._idx, high, side="right"))
        yield from self._iter_runs(lo, hi)

    def has_any_in_range(self, low: int, high: int) -> bool:
        self._merge()
        pos = int(np.searchsorted(self._idx, low, side="left"))
        return pos < self._idx.size and int(self._idx[pos]) <= high

    def all_elements(self) -> Iterator[StoredElement]:
        self._merge()
        yield from self._iter_runs(0, self._idx.size)

    def indices(self) -> list[int]:
        self._merge()
        return [int(v) for v in np.unique(self._idx)]

    def key_count_at(self, index: int) -> int:
        self._merge()
        lo = int(np.searchsorted(self._idx, index, side="left"))
        hi = int(np.searchsorted(self._idx, index, side="right"))
        if hi - lo <= 1:
            return hi - lo
        return len({self._elems[i].key for i in range(lo, hi)})

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        if self._key_count_cache is None:
            self._merge()
            count = 0
            i, n = 0, self._idx.size
            while i < n:
                j = i + 1
                while j < n and self._idx[j] == self._idx[i]:
                    j += 1
                if j - i == 1:
                    count += 1
                else:
                    count += len({self._elems[k].key for k in range(i, j)})
                i = j
            self._key_count_cache = count
        return self._key_count_cache

    @property
    def element_count(self) -> int:
        return self._element_count

    def memory_bytes(self) -> int:
        """Column bytes + buffer slots; element/payload objects not deep-sized."""
        return int(
            self._idx.nbytes
            + self._elems.nbytes
            + len(self._pending) * (8 + ELEMENT_BYTES)  # list slot + element object
            + self._elems.size * ELEMENT_BYTES  # element objects behind the column
        )

    def _stats_detail(self) -> dict:
        return {"pending": len(self._pending), "merges": self._merges}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _merge(self) -> None:
        """Fold the append buffer into the sorted columns (stable)."""
        if not self._pending:
            return
        pend_idx = np.fromiter(
            (e.index for e in self._pending), dtype=np.int64, count=len(self._pending)
        )
        order = np.argsort(pend_idx, kind="stable")
        pend_idx = pend_idx[order]
        pend_elems = np.empty(len(self._pending), dtype=object)
        pend_elems[:] = self._pending
        pend_elems = pend_elems[order]
        if self._idx.size == 0:
            self._idx, self._elems = pend_idx, pend_elems
        else:
            # side="right": new arrivals land after existing equals, keeping
            # arrival order within an index across merges.
            pos = np.searchsorted(self._idx, pend_idx, side="right")
            self._idx = np.insert(self._idx, pos, pend_idx)
            self._elems = np.insert(self._elems, pos, pend_elems)
        self._pending.clear()
        self._merges += 1

    def _iter_runs(self, lo: int, hi: int) -> Iterator[StoredElement]:
        """Yield ``self._elems[lo:hi]`` regrouping equal-index runs by key."""
        idx = self._idx
        elems = self._elems
        i = lo
        while i < hi:
            j = i + 1
            while j < hi and idx[j] == idx[i]:
                j += 1
            if j - i == 1:
                yield elems[i]
            else:
                yield from regroup_run([elems[k] for k in range(i, j)])
            i = j
