"""The query tree's geometry, held to its properties without a ring.

``repro.core.planner`` takes ring positions as plain integers, so a sorted
list of node identifiers is ring enough: the owner of a key is a bisect,
a node's predecessor the entry before it.  Walking a query through
``plan``, ``group``, ``window`` and ``expand`` over such a list must scan
every index of the region's curve image exactly once, and every remainder
must stay inside the part of its cluster past the node that refined it.
"""

import ast
from bisect import bisect_left
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import planner
from repro.core.metrics import merge_index_ranges
from repro.sfc import CURVES, make_curve
from repro.sfc.clusters import resolve_clusters
from repro.sfc.regions import Region

ENGINE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core" / "engine.py"


def walk(curve, region, ids, depth):
    """Resolve ``region`` over the ring ``ids`` (sorted); return every scan
    range, asserting the remainder properties at each refinement.

    Every branch walks forward: a routing key exceeds the sender's id, so a
    branch's nodes have increasing ids until one wrapped arrival at the
    first node, which owns the rest — at most ``len(ids) + 1`` visits."""
    end = curve.size - 1

    def owner(key):
        return ids[bisect_left(ids, key) % len(ids)]

    def pred(node):
        return ids[ids.index(node) - 1]

    def post(clusters, floor, visits):
        for dest, pairs in planner.group(curve, clusters, floor, owner).items():
            for key, cluster in pairs:
                assert key >= floor and owner(key) == dest
                work.append((dest, cluster, key, visits + 1))

    work, scans = [], []
    post(planner.plan(curve, region, depth), 0, 0)
    while work:
        node, cluster, low, visits = work.pop()
        assert visits <= len(ids) + 1
        lo, hi, owned = planner.window(curve, cluster, low, node, pred(node))
        high = node if low <= node and pred(node) != node else end
        scan = planner.clip(curve, cluster, low, high)
        assert scan == ([(lo, hi)] if lo <= hi else [])
        assert planner.pieces(curve, cluster, low, hi) == planner.pieces(
            curve, cluster, low, high
        )
        scans += scan
        if owned:
            continue
        floor = node + 1
        (lo, hi), = planner.clip(curve, cluster, floor, end)
        remainder = planner.expand(curve, cluster, region, floor, depth)
        for child in remainder:
            (child_lo, child_hi), = planner.clip(curve, child, floor, end)
            assert lo <= child_lo <= child_hi <= hi
        post(remainder, floor, visits)
    return scans


@st.composite
def scenarios(draw):
    family = draw(st.sampled_from(sorted(CURVES)))
    dims = draw(st.integers(2, 3))
    order = draw(st.integers(-(-8 // dims), 16 // dims))
    curve = make_curve(family, dims, order)
    bounds = []
    for _ in range(dims):
        a, b = (draw(st.integers(0, curve.side - 1)) for _ in range(2))
        bounds.append((min(a, b), max(a, b)))
    ids = sorted(draw(st.sets(st.integers(0, curve.size - 1), min_size=1, max_size=64)))
    return curve, Region.from_bounds(bounds), ids, draw(st.integers(1, 2))


class TestWalk:
    @given(scenarios())
    @settings(max_examples=300, deadline=None)
    def test_scans_partition_the_region_image(self, scenario):
        curve, region, ids, depth = scenario
        scans = sorted(walk(curve, region, ids, depth))
        for (_, prev_hi), (lo, _) in zip(scans, scans[1:]):
            assert prev_hi < lo  # pairwise disjoint: no index scanned twice
        merged = merge_index_ranges(scans)
        starts = [lo for lo, _ in merged]
        for low, high in resolve_clusters(curve, region):
            lo, hi = merged[bisect_left(starts, low + 1) - 1]
            assert lo <= low and high <= hi


class TestUsefulLevel:
    def test_grows_with_the_ring_and_stops_at_the_order(self):
        curve = make_curve("hilbert", 2, 8)
        levels = [planner.useful_level(curve, n) for n in (1, 2, 16, 1024, 1 << 40)]
        assert levels == sorted(levels)
        assert levels[0] == levels[1] == 2
        assert levels[-1] == curve.order


class TestEngineHoldsNoGeometry:
    def test_engine_calls_no_cluster_geometry(self):
        """Geometry belongs to the planner; the engine only accounts for it."""
        tree = ast.parse(ENGINE.read_text())
        calls = {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        }
        assert not calls & {"min_index", "max_index", "iter_index_ranges"}
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not imported & {"refine_cluster", "root_cluster"}
