"""Small statistics helpers shared by experiments and load-balancing code.

These are deliberately dependency-light (NumPy only) and operate on plain
sequences of numbers so both the simulator and the experiment harness can use
them without conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Summary",
    "summarize",
    "gini_coefficient",
    "imbalance_ratio",
    "coefficient_of_variation",
    "histogram_counts",
    "percentiles",
]


@dataclass(frozen=True)
class Summary:
    """Five-number-plus summary of a sample."""

    count: int
    total: float
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def as_row(self) -> dict[str, float]:
        """Return the summary as a flat dict (for table printing)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary` of ``values`` (empty input yields zeros)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=int(arr.size),
        total=float(arr.sum()),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
    )


def gini_coefficient(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative sample (0 = even, → 1 = concentrated).

    Used to quantify load imbalance across peers: the paper's Figure 19 shows
    load distributions; the Gini gives a single scalar for assertions.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        return 0.0
    if np.any(arr < 0):
        raise ValueError("gini_coefficient requires non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    # Standard formulation via the sorted-sample index weights.
    weights = np.arange(1, n + 1, dtype=float)
    return float((2.0 * np.dot(weights, arr) / (n * total)) - (n + 1.0) / n)


def imbalance_ratio(values: Sequence[float]) -> float:
    """Max load divided by mean load (1.0 = perfectly even)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 1.0
    mean = arr.mean()
    if mean == 0:
        return 1.0
    return float(arr.max() / mean)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation over mean (0 = perfectly even)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)


def histogram_counts(
    values: Sequence[float], bins: int, low: float, high: float
) -> np.ndarray:
    """Counts of ``values`` over ``bins`` equal-width intervals of [low, high).

    This mirrors the paper's Figure 18 (index space partitioned into 500
    intervals, counting keys per interval).
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    if high <= low:
        raise ValueError("high must exceed low")
    counts, _ = np.histogram(np.asarray(values, dtype=float), bins=bins, range=(low, high))
    return counts


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (50, 95, 99)
) -> dict[str, float]:
    """Named percentiles of a sample: ``{"p50": ..., "p95": ..., "p99": ...}``.

    The shared implementation behind the load generator's latency report.
    An empty sample yields ``nan`` for every quantile, because a latency
    report must not present "no data" as "instant" (the load generator's
    ``--check`` mode asserts the values are finite).
    """
    labels = [f"p{int(q) if float(q).is_integer() else q}" for q in qs]
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {label: float("nan") for label in labels}
    points = np.percentile(arr, list(qs))
    return {label: float(point) for label, point in zip(labels, points)}
