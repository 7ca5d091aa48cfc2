"""Query streams: temporal query workloads for hot-spot and caching studies.

Real discovery traffic repeats: query popularity is Zipf-distributed and
exhibits temporal locality (what was just asked is likely to be asked
again).  :class:`ZipfQueryStream` models both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.util.rng import RandomLike, as_generator
from repro.workloads.corpus import zipf_weights

__all__ = ["ZipfQueryStream"]


@dataclass
class ZipfQueryStream:
    """A repeating stream over a fixed query pool.

    ``exponent`` sets the popularity skew (1.0 = classic Zipf), and
    ``locality`` in [0, 1) adds temporal locality: with that probability the
    next query repeats one of the last ``window`` queries instead of an
    independent Zipf draw.
    """

    queries: list[str]
    exponent: float = 1.0
    locality: float = 0.0
    window: int = 4

    def __post_init__(self) -> None:
        if not self.queries:
            raise WorkloadError("a query stream needs a non-empty query pool")
        if not 0.0 <= self.locality < 1.0:
            raise WorkloadError(f"locality must be in [0, 1), got {self.locality}")
        if self.window < 1:
            raise WorkloadError(f"window must be >= 1, got {self.window}")
        self._weights = zipf_weights(len(self.queries), self.exponent)

    def generate(self, length: int, rng: RandomLike = None) -> list[str]:
        """Draw ``length`` queries."""
        if length < 0:
            raise WorkloadError(f"length must be >= 0, got {length}")
        gen = as_generator(rng)
        out: list[str] = []
        for _ in range(length):
            if out and gen.random() < self.locality:
                recent = out[-self.window :]
                out.append(recent[int(gen.integers(0, len(recent)))])
            else:
                out.append(self.queries[int(gen.choice(len(self.queries), p=self._weights))])
        return out

    def popularity_counts(self, stream: list[str]) -> dict[str, int]:
        """Occurrences of each pool query in a generated stream."""
        counts = {q: 0 for q in self.queries}
        for q in stream:
            counts[q] = counts.get(q, 0) + 1
        return counts

    def expected_top_share(self, length: int) -> float:
        """Expected fraction of the stream taken by the most popular query
        (ignoring the locality boost, which only increases it)."""
        return float(self._weights[0])
