"""The reference model of the scan contract: ``index -> {key -> [elements]}``.

This sorted multimap is the layout ``LocalStore`` had until it became two
flat lists, kept here — with no bisection, no normalization and no counters —
as the explicit statement of what every registered backend must return
(``repro/store/base.py``, contract points 1–3): ascending index, key groups
in first-publish order, publish order inside a group, each selected element
exactly once, as the object that was added.
"""

from __future__ import annotations


class ModelStore:
    def __init__(self) -> None:
        self.by_index: dict[int, dict[tuple, list]] = {}

    def add(self, element) -> None:
        self.by_index.setdefault(element.index, {}).setdefault(element.key, []).append(element)

    def add_sorted_bulk(self, elements) -> None:
        for element in elements:
            self.add(element)

    def pop_range(self, low: int, high: int) -> list:
        moved = self.scan_ranges([(low, high)])
        for index in [i for i in self.by_index if low <= i <= high]:
            del self.by_index[index]
        return moved

    def clear(self) -> None:
        self.by_index.clear()

    def scan_ranges(self, ranges) -> list:
        return [
            element
            for index in sorted(self.by_index)
            if any(low <= index <= high for low, high in ranges)
            for group in self.by_index[index].values()
            for element in group
        ]

    def all_elements(self) -> list:
        return self.scan_ranges([(min(self.by_index, default=0), max(self.by_index, default=0))])

    def indices(self) -> list[int]:
        return sorted(self.by_index)

    def has_any_in_range(self, low: int, high: int) -> bool:
        return any(low <= index <= high for index in self.by_index)

    def key_count_at(self, index: int) -> int:
        return len(self.by_index.get(index, ()))

    @property
    def key_count(self) -> int:
        return sum(len(bucket) for bucket in self.by_index.values())

    @property
    def element_count(self) -> int:
        return len(self.all_elements())

    def split_point_by_load(self) -> int | None:
        """The last index of the smallest prefix of indices holding half the
        keys, never the store's last index; ``None`` under two indices."""
        indices = self.indices()
        if len(indices) < 2:
            return None
        counted = 0
        for index in indices[:-1]:
            counted += len(self.by_index[index])
            if counted >= self.key_count / 2:
                return index
        return indices[-2]
