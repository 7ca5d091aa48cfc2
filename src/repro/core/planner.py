"""The query tree's geometry (paper §3.4), as pure functions.

Distributed resolution is geometry plus accounting.  The geometry lives
here: refine a cluster past a node's identifier, decide what a visit scans
and whether the node owns the rest, and group sibling sub-clusters by
destination.  Every function takes the curve, the region, clusters and ring
positions as plain integers — no ring, store or run — so it can be held to
its properties without building a system (``tests/core/test_planner.py``).
Both engines, through ``QueryEngine._visit`` and
``OptimizedEngine._dispatch``, and ``SquidSystem.explain`` call it; the
engine keeps the fault, guard, trace and latency accounting.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Sequence

from repro.sfc.clusters import Cluster, refine_cluster, root_cluster

__all__ = ["plan", "expand", "window", "clip", "pieces", "group", "useful_level"]


def plan(curve, region, depth: int) -> list[Cluster]:
    """The initiator's first step of the query tree: the region's root
    cluster refined ``depth`` levels."""
    root = root_cluster(curve, region)
    if root is None:  # pragma: no cover - regions are never empty
        return []
    return expand(curve, root, region, 0, depth)


def expand(curve, cluster: Cluster, region, floor: int, depth: int, tree=None):
    """A node's step: the part of ``cluster`` at indices ``>= floor``,
    refined ``depth`` levels (CPU only), replaying each step ``tree``
    already holds (``refine_cluster``'s ``tree``).  Resolved clusters are
    carried unchanged past the first level."""
    clusters = refine_cluster(curve, cluster, region, floor, tree)
    for _ in range(depth - 1):
        if all(c.is_resolved for c in clusters):
            break
        nxt: list[Cluster] = []
        for c in clusters:
            if c.is_resolved:
                nxt.append(c)
            else:
                nxt.extend(refine_cluster(curve, c, region, floor, tree))
        clusters = nxt
    return clusters


def window(curve, cluster: Cluster, low: int, covered: int, pred: int):
    """What a visit arriving at key ``low`` scans for the node ``covered``
    (whose predecessor is ``pred``): ``(lo, hi, owned)``.

    The visit is responsible for the cluster from ``low`` up to ``high``:
    the covered identifier, or the end of the index space when the delivery
    wrapped around the ring (a first-node visit for the tail segment) or the
    node is alone on it (its arc is the whole space, above its identifier
    too).  Windowing keeps a chain's scans disjoint even when it wraps past
    0.  ``[lo, hi]`` is :func:`clip` of that window, empty when ``lo > hi``;
    :func:`pieces` over ``[low, hi]`` equals it over ``[low, high]``.

    ``owned`` is the paper's pruning: the covered node owns the cluster's
    whole remaining range, i.e. its last index is within the window.  The
    wrap test comes from the window itself, not from the predecessor
    pointer alone: after a crash a stale pointer can name a dead peer with a
    larger identifier, and a prune keyed on it would miss, re-dispatching
    and re-scanning the tail segment (duplicated matches).  A wrapped
    arrival already scanned ``[low, 2^m)``, which holds every remaining
    linear index of the cluster.
    """
    high = covered if low <= covered and pred != covered else curve.size - 1
    top = cluster.max_index(curve)  # the cluster's bounds, computed once
    bottom = cluster.min_index(curve)
    return bottom if bottom > low else low, top if top < high else high, top <= high


def clip(curve, cluster: Cluster, low: int, high: int) -> list[tuple[int, int]]:
    """The cluster's indices within ``[low, high]``.  A cluster is one
    contiguous curve segment (its pieces are gap-free), so that is one
    range or none."""
    lo = max(cluster.min_index(curve), low)
    hi = min(cluster.max_index(curve), high)
    return [(lo, hi)] if lo <= hi else []


def pieces(curve, cluster: Cluster, low: int, high: int) -> int:
    """How many of the cluster's pieces reach into ``[low, high]``: the
    count the ``LocalScan``, ``BranchLost`` and ``BranchShed`` trace events
    carry."""
    return sum(
        1 for lo, hi in cluster.iter_index_ranges(curve)
        if max(lo, low) <= min(hi, high)
    )


def group(
    curve, clusters: Sequence[Cluster], floor: int, owner: Callable[[int], int]
) -> dict[int, list[tuple[int, Cluster]]]:
    """Sibling sub-clusters by destination, for aggregation.

    A sub-cluster is routed by its first index *of interest*,
    ``max(min_index, floor)``: a partial cell straddling the sender's trim
    boundary keeps its full geometry, so its nominal minimum can lie at or
    below the sender — the floored key keeps a chain strictly advancing
    along the ring.  Returns ``{owner(key): [(key, cluster), ...]}`` with
    destinations in order of their first key and each list in key order
    (the sort is stable on the key alone).

    ``owner`` is the ring's successor function, so it is asked once per
    destination: a key at or below the last key's owner has that owner too.
    """
    if len(clusters) == 1:  # a lone remainder needs no sort
        key = max(clusters[0].min_index(curve), floor)
        return {owner(key): [(key, clusters[0])]}
    keyed = sorted(
        ((max(c.min_index(curve), floor), c) for c in clusters), key=itemgetter(0)
    )
    groups: dict[int, list[tuple[int, Cluster]]] = {}
    dest = -1
    for pair in keyed:
        if pair[0] > dest:  # past the last owner (or wrapped): ask the ring
            dest = owner(pair[0])
            pairs = groups.setdefault(dest, [])
        pairs.append(pair)
    return groups


def useful_level(curve, n_nodes: int) -> int:
    """The refinement depth at which node arcs dominate: beyond about
    ``log2(n_nodes)`` index bits a cluster fits within a single peer."""
    n = max(n_nodes, 2)
    return min(curve.order, max(1, (n.bit_length() + curve.dims - 1) // curve.dims + 1))
