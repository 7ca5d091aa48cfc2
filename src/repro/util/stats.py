"""Small statistics helpers shared by experiments and load-balancing code.

These are deliberately dependency-light (NumPy only) and operate on plain
sequences of numbers so both the simulator and the experiment harness can use
them without conversions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "gini_coefficient",
    "coefficient_of_variation",
    "percentiles",
]


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


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation over mean (0 = perfectly even)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return 0.0
    mean = arr.mean()
    if mean == 0:
        return 0.0
    return float(arr.std() / mean)


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
