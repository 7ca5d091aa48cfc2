"""The formal node-store API: :class:`NodeStore`, :class:`StoreSpec`.

Every overlay node indexes its SFC-mapped keyword tuples in a *node store*.
This module specifies the store contract that the query engines, the
replication manager, the load balancer, and the fault plane all program
against; concrete backends (:class:`~repro.store.memory.LocalStore`,
:class:`~repro.store.sqlite.SQLiteStore`) live in sibling modules and are
selected by name through :func:`repro.store.get_store`.

The scan contract
-----------------
All read paths reduce to one entry point, :meth:`NodeStore.scan_ranges`
(``scan_range`` is the single-range special case), whose semantics every
backend must reproduce **exactly** — the cross-backend equivalence suite in
``tests/store/`` asserts byte-identical output against ``LocalStore`` and
against an explicit reference model:

1. *Selection.*  Given inclusive index ranges, a scan returns a list in
   which every stored element whose curve index falls in the union of the
   ranges appears **exactly once** — ranges are normalized first (invalid
   ``low > high`` ranges dropped, the rest sorted by ``low`` and
   coalesced), so overlapping or unsorted input cannot duplicate elements.
2. *Ordering.*  The list is in ascending index order.  Elements sharing an
   index are grouped by key: key groups appear in first-publish order, and
   elements inside a group in publish order.  (This is the arrival order a
   sorted multimap ``index -> {key -> [elements]}`` produces — the model
   ``tests/store/reference.py`` keeps — and what result ordering downstream
   has always observed.)
3. *Stability.*  Scanning the same stored element twice returns the *same
   object*, not merely an equal one — identity-based result accounting
   (e.g. recall measurement against ``brute_force_matches``) relies on it.
   Disk-backed stores satisfy this with a row cache primed at insert.
4. *Accounting.*  One ``store.range_scans`` metric per non-empty scan
   batch, regardless of how many ranges it contains.

:meth:`NodeStore.pop_range` returns the removed elements in scan order, so
key handoffs (joins, load balancing, replica promotion) rebuild the same
arrival order on the receiving store regardless of backend.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from repro.errors import StoreError
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["StoredElement", "StoreStats", "StoreSpec", "NodeStore"]


@dataclass(frozen=True, slots=True)
class StoredElement:
    """A data element at rest: its curve index, keyword tuple, and payload.

    Slotted: the three fields live in the object itself, so the post-filter
    reads ``e.key`` without a second allocation (an instance ``__dict__``)
    in between.
    """

    index: int
    key: tuple[Any, ...]
    payload: Any = None


#: What one element costs a store that holds it: the object alone (header
#: and three slots), not the key tuple, keywords or payload it points to.
ELEMENT_BYTES = sys.getsizeof(StoredElement(0, ()))


@dataclass(frozen=True)
class StoreStats:
    """One backend-agnostic snapshot of a store's size and footprint."""

    #: Registry name of the backend (``"local"``, ``"sqlite"``).
    backend: str
    #: Data elements held (documents/resources).
    elements: int
    #: Distinct ``(index, key)`` combinations held (the paper's load unit).
    keys: int
    #: Estimated resident bytes of the store's own structures (container
    #: arrays, buffers, caches); payload objects themselves are not deep-sized.
    memory_bytes: int
    #: Backend-specific extras (e.g. ``disk_bytes``, ``pending`` write-batch depth).
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StoreSpec:
    """A recipe for building a store: registry name + options.

    :class:`~repro.core.system.SquidSystem` and
    :class:`~repro.core.replication.ReplicationManager` create every per-node
    store through it.
    """

    name: str = "local"
    options: dict[str, Any] = field(default_factory=dict)

    def create(self, node_id: int | None = None) -> "NodeStore":
        """Instantiate the backend (``node_id`` labels per-node resources)."""
        from repro.store import get_store

        return get_store(self.name, node_id=node_id, **self.options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        opts = ", ".join(f"{k}={v!r}" for k, v in sorted(self.options.items()))
        return f"StoreSpec({self.name!r}{', ' + opts if opts else ''})"


def normalize_ranges(ranges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Canonical scan input: drop invalid ranges, sort, coalesce overlaps.

    The returned ranges are sorted by ``low`` and pairwise disjoint (adjacent
    ranges are merged too — the union, and therefore the scan output, is
    identical), so a backend can scan them left to right without ever
    revisiting an index.  Zero or one valid range — all an engine visit ever
    passes — is returned as is.
    """
    spans = [(low, high) for low, high in ranges if low <= high]
    if len(spans) < 2:
        return spans
    spans.sort()
    merged: list[tuple[int, int]] = []
    for low, high in spans:
        if merged and low <= merged[-1][1] + 1:
            if high > merged[-1][1]:
                merged[-1] = (merged[-1][0], high)
        else:
            merged.append((low, high))
    return merged


def regroup_run(elements: Sequence[StoredElement]) -> Iterator[StoredElement]:
    """Yield one equal-index run in the contract order (see module docstring).

    ``elements`` must share an index and be in arrival order; grouping them
    stably by key reproduces the multimap ordering: key groups in
    first-arrival order, arrival order inside each group.
    """
    if len(elements) == 1:
        yield elements[0]
        return
    groups: dict[tuple, list[StoredElement]] = {}
    for element in elements:
        groups.setdefault(element.key, []).append(element)
    for per_key in groups.values():
        yield from per_key


class NodeStore(ABC):
    """Abstract per-node store: the protocol every backend implements.

    Subclasses implement the abstract primitives; the concrete methods here
    provide the shared semantics (range normalization, scan metrics,
    snapshots, stats) so backends cannot drift on the contract
    documented in the module docstring.
    """

    #: Registry name; set by each backend class.
    backend_name: str = "abstract"

    # ------------------------------------------------------------------
    # Abstract primitives
    # ------------------------------------------------------------------
    @abstractmethod
    def add(self, element: StoredElement) -> None:
        """Insert one element."""

    @abstractmethod
    def add_sorted_bulk(self, elements: list[StoredElement]) -> None:
        """Insert a batch given in arrival order (indices in any order).

        Leaves the store exactly as :meth:`add` per element would; called on
        stores that already hold elements too (handoffs, and ``unpublish``
        putting back what it kept), where it must not re-sort what is stored.
        """

    @abstractmethod
    def pop_range(self, low: int, high: int) -> list[StoredElement]:
        """Remove and return every element with index in ``[low, high]``.

        Raises :class:`~repro.errors.StoreError` when ``low > high``.  The
        returned list is in scan order (contract point 2), so re-adding it
        elsewhere preserves arrival order.
        """

    @abstractmethod
    def _scan_span(self, low: int, high: int) -> Iterable[StoredElement]:
        """``[low, high]`` in contract order, as a list or a one-shot
        iterator; no metrics, no validation."""

    @abstractmethod
    def all_elements(self) -> Iterator[StoredElement]:
        """Every element, in contract scan order over the whole index space."""

    @abstractmethod
    def indices(self) -> list[int]:
        """Sorted distinct indices present in the store (Python ints)."""

    @abstractmethod
    def key_count_at(self, index: int) -> int:
        """Number of distinct keys stored at ``index``."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all contents (counters included)."""

    @abstractmethod
    def memory_bytes(self) -> int:
        """Estimated resident bytes of store structures (see StoreStats)."""

    @property
    @abstractmethod
    def key_count(self) -> int:
        """Distinct keyword combinations stored (the paper's load measure)."""

    @property
    @abstractmethod
    def element_count(self) -> int:
        """Data elements stored."""

    # ------------------------------------------------------------------
    # Shared read paths
    # ------------------------------------------------------------------
    def scan_range(self, low: int, high: int) -> list[StoredElement]:
        """The elements with index in ``[low, high]``: a list in contract order."""
        if low > high:
            return []
        self._count_scan()
        return list(self._scan_span(low, high))

    def scan_ranges(self, ranges) -> list[StoredElement]:
        """The union of several index ranges: a list in contract order.

        This is the single scan entry point the engines and the fault
        plane's replica failover use.  Input ranges are normalized (sorted,
        coalesced, invalid ranges dropped), so each selected element appears
        exactly once even when the input overlaps.  Counts one
        ``store.range_scans`` metric for the whole non-empty batch.
        """
        found: list[StoredElement] = []
        spans = normalize_ranges(ranges)
        if spans:
            self._count_scan()
            for low, high in spans:
                found.extend(self._scan_span(low, high))
        return found

    def has_any_in_range(self, low: int, high: int) -> bool:
        """True if any element index falls in ``[low, high]``."""
        if low > high:
            return False
        for _ in self._scan_span(low, high):
            return True
        return False

    def split_point_by_load(self) -> int | None:
        """Index below which about half the keys live (for boundary shifts).

        Returns the index such that handing ``[min_index, result]`` away
        moves roughly half this store's keys; ``None`` when the store holds
        fewer than two distinct indices.
        """
        idxs = self.indices()
        if len(idxs) < 2:
            return None
        counted = 0
        half = self.key_count / 2
        for index in idxs[:-1]:
            counted += self.key_count_at(index)
            if counted >= half:
                return index
        return idxs[-2]

    # ------------------------------------------------------------------
    # Replication / persistence support
    # ------------------------------------------------------------------
    def snapshot(self) -> list[StoredElement]:
        """The full contents in scan order, as a picklable list.

        ``clear()`` then ``add_sorted_bulk(snapshot())`` on any backend
        rebuilds a scan-identical store: snapshots are backend-portable.
        """
        return list(self.all_elements())

    def stats(self) -> StoreStats:
        """Size/footprint snapshot (uniform across backends)."""
        return StoreStats(
            backend=self.backend_name,
            elements=self.element_count,
            keys=self.key_count,
            memory_bytes=self.memory_bytes(),
            detail=self._stats_detail(),
        )

    def close(self) -> None:
        """Release external resources (connections, files); idempotent."""

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _stats_detail(self) -> dict[str, Any]:
        return {}

    @staticmethod
    def _check_range(low: int, high: int) -> None:
        if low > high:
            raise StoreError(f"invalid range [{low}, {high}]")

    @staticmethod
    def _count_scan() -> None:
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("store.range_scans").inc()

    @staticmethod
    def _count_added(n: int) -> None:
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("store.elements_added").inc(n)

    @staticmethod
    def _count_moved(n: int) -> None:
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("store.elements_moved").inc(n)

    def __len__(self) -> int:
        return self.element_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(keys={self.key_count}, "
            f"elements={self.element_count})"
        )
