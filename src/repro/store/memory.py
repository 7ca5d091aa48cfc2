"""The flat sorted in-memory backend (registry name ``"local"``).

The default per-node store: two parallel lists kept *at rest* in the scan
order of :mod:`repro.store.base` — ``_indices``, one curve index per
element, non-decreasing, and ``_elements``.  A range scan is two bisections
and one list slice, a handoff (``pop_range``) a slice and a ``del`` on one
side and a slice assignment on the other; only a single publish pays for
the order, with a bisection and a ``list.insert``.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from itertools import groupby, islice
from operator import attrgetter, gt, ne
from typing import Iterator

from repro.store.base import ELEMENT_BYTES, NodeStore, StoredElement, regroup_run

__all__ = ["LocalStore", "StoredElement"]

_index_of = attrgetter("index")
_key_of = attrgetter("key")


def _distinct_keys(elements: list[StoredElement]) -> int:
    """Distinct ``(index, key)`` pairs among ``elements``."""
    return len({(element.index, element.key) for element in elements})


def _contract_order(elements: list[StoredElement]) -> tuple[list[StoredElement], list[int], int]:
    """A batch in arrival order put in contract order: the elements, their
    indices and their distinct ``(index, key)`` pairs.  The stable sort by
    index is skipped when the batch is sorted already, and the equal-index
    runs are regrouped by key only when some key's elements are apart."""
    indices = [element.index for element in elements]
    if any(map(gt, indices, islice(indices, 1, None))):
        elements = sorted(elements, key=_index_of)
        indices = [element.index for element in elements]
    pairs = list(zip(indices, map(_key_of, elements)))
    keys = len(set(pairs))
    if keys == 1 + sum(map(ne, pairs, islice(pairs, 1, None))):
        return elements, indices, keys  # every (index, key) group is contiguous
    ordered: list[StoredElement] = []
    for _, run in groupby(elements, _index_of):
        ordered += regroup_run(list(run))
    return ordered, indices, keys


class LocalStore(NodeStore):
    """Parallel lists ``_indices`` / ``_elements`` in contract order.

    *Keys* (unique keyword combinations, the paper's load unit) may collide
    on an index (quantization); *elements* (documents/resources) may share a
    key.  Inside an equal-index run the elements of one key are adjacent:
    key groups in first-publish order, publish order inside a group.
    """

    backend_name = "local"

    def __init__(self, node_id: int | None = None) -> None:
        self._node_id = node_id
        self._indices: list[int] = []
        self._elements: list[StoredElement] = []
        self._key_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, element: StoredElement) -> None:
        """Insert one element: after the last one of its key at its index,
        else at the end of the index's run (O(log n) + one list shift)."""
        indices, elements = self._indices, self._elements
        index, key = element.index, element.key
        # Walk the equal-index run backwards to the key's group; runs are
        # quantization collisions, almost always of length 0 or 1.
        pos = end = bisect_right(indices, index)
        while pos and indices[pos - 1] == index and elements[pos - 1].key != key:
            pos -= 1
        if not pos or indices[pos - 1] != index:
            pos = end
            self._key_count += 1
        indices.insert(pos, index)
        elements.insert(pos, element)
        self._count_added(1)

    def add_sorted_bulk(self, elements: list[StoredElement]) -> None:
        """Insert a batch given in arrival order, at the cost of the batch.

        The batch is put in contract order and spliced in with one slice
        assignment when no stored index lies within its ``[first, last]``
        index span (bulk publish, handoffs, ``unpublish`` putting back what
        it kept).  Otherwise :meth:`add` files it per element, which leaves
        every stored element where it is.
        """
        if not elements:
            return
        ordered, indices, keys = _contract_order(elements)
        pos = bisect_left(self._indices, indices[0])
        if pos < len(self._indices) and self._indices[pos] <= indices[-1]:
            for element in ordered:
                self.add(element)
            return
        self._indices[pos:pos] = indices
        self._elements[pos:pos] = ordered
        self._key_count += keys
        self._count_added(len(ordered))

    def pop_range(self, low: int, high: int) -> list[StoredElement]:
        """Remove and return, in scan order, every element with index in
        ``[low, high]`` (join splits, load balancing, virtual-node migration)."""
        self._check_range(low, high)
        lo_pos = bisect_left(self._indices, low)
        hi_pos = bisect_right(self._indices, high, lo_pos)
        moved = self._elements[lo_pos:hi_pos]
        del self._indices[lo_pos:hi_pos]
        del self._elements[lo_pos:hi_pos]
        self._key_count -= _distinct_keys(moved)
        self._count_moved(len(moved))
        return moved

    def clear(self) -> None:
        self._indices.clear()
        self._elements.clear()
        self._key_count = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _scan_span(self, low: int, high: int) -> list[StoredElement]:
        lo_pos = bisect_left(self._indices, low)
        return self._elements[lo_pos:bisect_right(self._indices, high, lo_pos)]

    def has_any_in_range(self, low: int, high: int) -> bool:
        pos = bisect_left(self._indices, low)
        return pos < len(self._indices) and self._indices[pos] <= high

    def all_elements(self) -> Iterator[StoredElement]:
        return iter(self._elements)

    def indices(self) -> list[int]:
        """Sorted distinct indices present in the store."""
        return list(dict.fromkeys(self._indices))

    def key_count_at(self, index: int) -> int:
        """Number of distinct keys stored at ``index``."""
        run = self._scan_span(index, index)
        return len(run) if len(run) < 2 else _distinct_keys(run)

    def split_point_by_load(self) -> int | None:
        """Index below which about half the keys live (for boundary shifts).

        One pass: a key is counted where the ``(index, key)`` pair changes,
        the threshold tested at the end of each index's run.
        """
        indices = self._indices
        if not indices or indices[0] == indices[-1]:
            return None
        half = self._key_count / 2
        counted = 0
        run_index, run_key = indices[0], None
        for index, element in zip(indices, self._elements):
            if index != run_index:
                if counted >= half or index == indices[-1]:
                    break  # never the last index: handing it away empties the store
                run_index, run_key = index, None
            if element.key != run_key:
                run_key = element.key
                counted += 1
        return run_index

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        """Distinct keyword combinations stored (the paper's load measure)."""
        return self._key_count

    @property
    def element_count(self) -> int:
        return len(self._elements)

    def memory_bytes(self) -> int:
        """The two lists plus one slotted :class:`StoredElement` per element.

        Not counted: key tuples, keyword values (a word is one interned
        object however many keys hold it) and payloads — none is deep-sized,
        uniformly across backends — and the index ``int``, the one object
        the element and ``_indices`` share."""
        columns = sys.getsizeof(self._indices) + sys.getsizeof(self._elements)
        return columns + len(self._elements) * ELEMENT_BYTES
