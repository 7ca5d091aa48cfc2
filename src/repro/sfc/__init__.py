"""Space-filling curves: the paper's dimension-reducing index machinery.

Public surface:

* :class:`~repro.sfc.base.SpaceFillingCurve` — curve interface (encode,
  decode, recursive child enumeration).
* :class:`~repro.sfc.hilbert.HilbertCurve` — the locality-preserving Hilbert
  curve used by Squid.
* :class:`~repro.sfc.zorder.MortonCurve` — Z-order comparison mapping.
* :class:`~repro.sfc.graycurve.GrayCurve` — Gray-coded comparison mapping.
* :class:`~repro.sfc.onioncurve.OnionCurve` — hierarchical onion (peel-loop)
  curve, the near-optimal-clustering fourth family.
* :mod:`~repro.sfc.regions` — query regions (boxes / unions of boxes).
* :mod:`~repro.sfc.clusters` — cluster generation and recursive refinement.
* :mod:`~repro.sfc.analysis` — clustering/locality analytics.
* :mod:`~repro.sfc.select` — adaptive curve/order selection from a workload
  sample (:func:`select_curve`).

Curve families are selected **by name**, mirroring the store backends; what
``SquidSystem.create(...)`` uses when no ``curve=`` is given comes from
:mod:`repro.config`.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.sfc.analysis import ClusterStats, cluster_stats, locality_ratio
from repro.sfc.base import SpaceFillingCurve
from repro.sfc.clusters import (
    Cell,
    Cluster,
    FullRange,
    clusters_at_level,
    count_clusters_per_level,
    refine_cluster,
    refine_level,
    resolve_clusters,
    root_cluster,
)
from repro.sfc.graycurve import GrayCurve
from repro.sfc.hilbert import HilbertCurve
from repro.sfc.onioncurve import OnionCurve
from repro.sfc.regions import Box, Containment, Interval, Region, full_region
from repro.sfc.select import CurveChoice, sample_box_regions, select_curve
from repro.sfc.zorder import MortonCurve

__all__ = [
    "SpaceFillingCurve",
    "HilbertCurve",
    "MortonCurve",
    "GrayCurve",
    "OnionCurve",
    "Box",
    "Containment",
    "Interval",
    "Region",
    "full_region",
    "Cell",
    "Cluster",
    "FullRange",
    "root_cluster",
    "refine_cluster",
    "refine_level",
    "clusters_at_level",
    "resolve_clusters",
    "count_clusters_per_level",
    "ClusterStats",
    "cluster_stats",
    "locality_ratio",
    "CURVES",
    "make_curve",
    "CurveChoice",
    "select_curve",
    "sample_box_regions",
]

#: Registry of curve families by name (used by config-driven experiments).
#: Third parties may register additional families; anything registered here
#: is automatically covered by the shared invariant test suites.
CURVES: dict[str, type[SpaceFillingCurve]] = {
    "hilbert": HilbertCurve,
    "zorder": MortonCurve,
    "gray": GrayCurve,
    "onion": OnionCurve,
}

def make_curve(name: str, dims: int, order: int) -> SpaceFillingCurve:
    """Instantiate a registered curve family by name.

    Unknown names raise a :class:`~repro.errors.ConfigError` listing the
    valid families (matching :func:`repro.store.get_store` behaviour).
    """
    try:
        cls = CURVES[name]
    except KeyError:
        raise ConfigError(
            f"unknown curve {name!r}; choose from {sorted(CURVES)}"
        ) from None
    return cls(dims, order)
