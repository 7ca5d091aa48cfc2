"""Clustering analytics for space-filling curves.

The paper's central argument is that the Hilbert mapping keeps queries
*clustered*: a query region maps to few curve segments, hence few peers.
This module quantifies that claim — cluster counts per query (the metric of
Moon, Jagadish, Faloutsos & Saltz's Hilbert clustering analysis, cited as
[12]) — and backs the Hilbert-vs-Z-order ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionMismatchError
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.clusters import resolve_clusters
from repro.sfc.regions import Region
from repro.util.rng import RandomLike, as_generator

__all__ = [
    "ClusterStats",
    "cluster_stats",
    "random_box_region",
    "average_cluster_count",
]


@dataclass(frozen=True)
class ClusterStats:
    """Cluster decomposition statistics for one query region."""

    cluster_count: int
    covered_indices: int
    largest_cluster: int
    smallest_cluster: int

    @property
    def mean_cluster_length(self) -> float:
        if self.cluster_count == 0:
            return 0.0
        return self.covered_indices / self.cluster_count


def cluster_stats(curve: SpaceFillingCurve, region: Region) -> ClusterStats:
    """Exact cluster statistics of ``region`` on ``curve``.

    A region whose dimensionality disagrees with the curve's raises
    :class:`~repro.errors.DimensionMismatchError` up front — the cell
    classifier would otherwise silently truncate the comparison and emit
    garbage statistics (degenerate rows in the curve-comparison ablation).
    """
    if region.dims != curve.dims:
        raise DimensionMismatchError(curve.dims, region.dims)
    ranges = resolve_clusters(curve, region)
    if not ranges:
        return ClusterStats(0, 0, 0, 0)
    lengths = [high - low + 1 for low, high in ranges]
    return ClusterStats(
        cluster_count=len(ranges),
        covered_indices=sum(lengths),
        largest_cluster=max(lengths),
        smallest_cluster=min(lengths),
    )


def random_box_region(
    curve: SpaceFillingCurve, extent: int, rng: RandomLike = None
) -> Region:
    """A random axis-aligned cube region with side ``extent``.

    ``extent`` must be an integer in ``[1, curve.side]``: 1 yields a point
    region, ``curve.side`` the full space.  Anything outside (zero-width,
    overhanging, fractional) raises ``ValueError`` instead of silently
    producing a degenerate region.
    """
    gen = as_generator(rng)
    if isinstance(extent, bool) or not isinstance(extent, (int, np.integer)):
        raise ValueError(f"extent must be an integer, got {extent!r}")
    extent = int(extent)
    if not 1 <= extent <= curve.side:
        raise ValueError(f"extent must be in [1, {curve.side}], got {extent}")
    bounds = []
    for _ in range(curve.dims):
        low = int(gen.integers(0, curve.side - extent + 1))
        bounds.append((low, low + extent - 1))
    return Region.from_bounds(bounds)


def average_cluster_count(
    curve: SpaceFillingCurve,
    extent: int,
    samples: int = 50,
    rng: RandomLike = None,
) -> float:
    """Mean cluster count over random cube queries of side ``extent``.

    For the Hilbert curve in 2-D, theory (Moon et al.) predicts the expected
    number of clusters for a region approaches ``perimeter / (2 * 2)``;
    Z-order yields asymptotically more.  The ablation bench compares both.
    """
    gen = as_generator(rng)
    total = 0
    for _ in range(samples):
        region = random_box_region(curve, extent, gen)
        total += cluster_stats(curve, region).cluster_count
    return total / samples
