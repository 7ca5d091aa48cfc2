"""The refinement kernel ≡ the readable reference, its action table, and its
value types.

``repro.sfc.clusters.refine_cluster`` is the only cluster-producing
refinement path (and the only path at all for curves whose indices exceed
``int64``), so it is held to structural identity with
``tests/sfc/reference_refine.py`` — same clusters, same piece lists, same
run splitting, ``min_index`` clipping and FullRange coalescing — for every
registered curve family, dims 1–4, narrow and wide orders, single- and
multi-box regions, and inputs that mix ``FullRange`` and ``Cell`` pieces.
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import planner
from repro.obs import collecting
from repro.sfc import CURVES
from repro.sfc import clusters as sfc_clusters
from repro.sfc.clusters import (
    Cell,
    Cluster,
    FullRange,
    count_clusters_per_level,
    refine_cluster,
    root_cluster,
)
from repro.sfc.hilbert import HilbertCurve, HilbertState
from repro.sfc.onioncurve import OnionState
from repro.sfc.regions import Box, Region
from tests.core.test_plan_tree import _build as build_plan_tree_system
from tests.sfc.reference_refine import reference_refine_cluster

#: Orders per dimensionality; the last of each row has ``index_bits > 63``.
#: Order 2 makes the two-levels-deep inputs all-FullRange clusters sitting
#: at ``level == order``.
ORDERS = {1: (2, 5, 16, 70), 2: (2, 4, 16, 40), 3: (2, 3, 8, 22), 4: (2, 3, 6, 17)}


@st.composite
def curves(draw, wide=None):
    family = draw(st.sampled_from(sorted(CURVES)))
    dims = draw(st.integers(1, 4))
    orders = ORDERS[dims]
    if wide is True:
        order = orders[-1]
    else:
        order = draw(st.sampled_from(orders))
    return CURVES[family](dims, order)


@st.composite
def regions(draw, curve):
    """1–3 boxes whose edges fall on the top few coordinate bits or anywhere."""
    side = curve.side
    coarse = max(side >> 3, 1)

    def edge():
        if draw(st.booleans()):
            return min(draw(st.integers(0, 8)) * coarse, side - 1)
        return draw(st.integers(0, side - 1))

    boxes = []
    for _ in range(draw(st.integers(1, 3))):
        bounds = []
        for _ in range(curve.dims):
            a, b = edge(), edge()
            bounds.append((min(a, b), max(a, b)))
        boxes.append(Box.from_bounds(bounds))
    return Region(tuple(boxes))


def min_indices(draw, curve, clusters):
    """0, anywhere on the curve, or at / around a cluster of the input."""
    choice = draw(st.integers(0, 3))
    if choice == 0 or not clusters:
        return 0
    if choice == 1:
        return draw(st.integers(0, curve.size - 1))
    cluster = draw(st.sampled_from(clusters))
    low = max(cluster.min_index(curve) - 1, 0)
    high = min(cluster.max_index(curve) + 1, curve.size - 1)
    return draw(st.integers(low, high))


def check_two_levels_deep(data, curve):
    region = data.draw(regions(curve))
    root = root_cluster(curve, region)
    assert refine_cluster(curve, root, region) == reference_refine_cluster(
        curve, root, region
    )
    level1 = reference_refine_cluster(curve, root, region)
    level2 = [
        c for parent in level1 for c in reference_refine_cluster(curve, parent, region)
    ]
    min_index = min_indices(data.draw, curve, level1 + level2)
    for cluster in level1 + level2:
        expected = reference_refine_cluster(curve, cluster, region, min_index)
        assert refine_cluster(curve, cluster, region, min_index=min_index) == expected
    # A node's step (the engine's local expansion): one level is the
    # kernel's step; a further level carries resolved clusters unchanged.
    for cluster in [root] + level1:
        step = reference_refine_cluster(curve, cluster, region, min_index)
        assert planner.expand(curve, cluster, region, min_index, depth=1) == step
        expected = []
        for child in step:
            if child.is_resolved:
                expected.append(child)
            else:
                expected.extend(
                    reference_refine_cluster(curve, child, region, min_index)
                )
        assert planner.expand(curve, cluster, region, min_index, depth=2) == expected


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_family_dims_and_order(self, data):
        check_two_levels_deep(data, data.draw(curves()))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wide_curves_stay_on_python_ints(self, data):
        """``index_bits > 63``: identical, and indices really exceed int64."""
        curve = data.draw(curves(wide=True))
        assert not curve.fits_int64
        check_two_levels_deep(data, curve)

    @pytest.mark.parametrize("family", sorted(CURVES))
    def test_wide_curve_high_indices(self, family):
        curve = CURVES[family](2, 40)
        side = curve.side
        region = Region.from_bounds([(side // 2 + 5, side - 7), (3, side - 1)])
        clusters = [root_cluster(curve, region)]
        for _ in range(3):
            nxt = []
            for cluster in clusters:
                got = refine_cluster(curve, cluster, region, min_index=1 << 70)
                assert got == reference_refine_cluster(
                    curve, cluster, region, 1 << 70
                )
                nxt.extend(c for c in got if not c.is_resolved)
            clusters = nxt
        assert clusters and clusters[-1].max_index(curve) > 1 << 63

    def test_all_fullrange_cluster_at_max_level(self):
        curve = HilbertCurve(2, 2)
        cluster = Cluster(level=2, pieces=(FullRange(2, 5), FullRange(6, 9)))
        region = Region.from_bounds([(0, 3), (0, 3)])
        for min_index in (0, 4, 6, 10):
            assert refine_cluster(
                curve, cluster, region, min_index=min_index
            ) == reference_refine_cluster(curve, cluster, region, min_index)


def random_region(curve, rng: random.Random, n_boxes: int = 1) -> Region:
    boxes = []
    for _ in range(n_boxes):
        bounds = []
        for _ in range(curve.dims):
            a, b = rng.randrange(curve.side), rng.randrange(curve.side)
            bounds.append((min(a, b), max(a, b)))
        boxes.append(Box.from_bounds(bounds))
    return Region(tuple(boxes))


class TestActionTable:
    """``curve.refine_table`` memoizes what a cell's children become.  It
    must be private to its curve and bounded by the curve, not the regions."""

    def test_curves_whose_states_compare_equal_keep_apart(self):
        # Hilbert 2-D and 3-D share the root state, a Hilbert state equals
        # the onion state with the same fields, and one family at two orders
        # walks the same states: a table keyed by state alone mixes them.
        curves = [
            CURVES["hilbert"](2, 5),
            CURVES["hilbert"](3, 4),
            CURVES["onion"](2, 5),
            CURVES["onion"](3, 4),
            CURVES["hilbert"](2, 7),
            CURVES["gray"](2, 5),
        ]
        assert len({c.root_state() for c in curves[:4]}) == 1
        rng = random.Random(5)
        for _ in range(12):
            fronts = []
            for curve in curves:
                region = random_region(curve, rng, rng.randint(1, 2))
                fronts.append((curve, region, [root_cluster(curve, region)]))
            for _ in range(4):  # one level on every curve in turn
                for curve, region, front in fronts:
                    step = []
                    for cluster in front:
                        min_index = rng.choice((0, cluster.min_index(curve) + 3))
                        got = refine_cluster(curve, cluster, region, min_index)
                        want = reference_refine_cluster(curve, cluster, region, min_index)
                        assert got == want
                        step.extend(c for c in got if not c.is_resolved)
                    front[:] = step
        assert all(curve.refine_table for curve in curves)

    def test_size_does_not_grow_with_the_regions_refined(self):
        curve = HilbertCurve(2, 6)
        rng = random.Random(3)
        sizes = []
        for count in (128, 3 * 128):  # N regions, then 4N in all
            for _ in range(count):
                count_clusters_per_level(curve, random_region(curve, rng))
            sizes.append(len(curve.refine_table))
        # Four states, and per axis a box either spans the cell or meets
        # one or both halves, covering any of the halves it meets.
        assert sizes[0] == sizes[1] <= 4 * 8**2

    @pytest.mark.parametrize("engine", ["optimized", "naive"])
    @pytest.mark.parametrize("curve", ["hilbert", "onion"])
    def test_engines_count_as_with_the_reference_kernel(
        self, monkeypatch, engine, curve
    ):
        """Same answers, stats and counters — cells refined, plan-cache tree
        replays — as a twin whose kernel is the reference."""

        def passes(system):
            origin = system.overlay.node_ids()[0]
            out = []
            for _ in range(3):  # plan, fill the plan cache's tree, replay it
                with collecting() as registry:
                    results = [
                        system.query(query, origin=origin, engine=engine)
                        for query in ("(comp*, *)", "(*, d*)", "(c*, d*)")
                    ]
                counters = registry.snapshot()["counters"]
                out.append(
                    (
                        [sorted(e.payload for e in r.matches) for r in results],
                        [r.stats.as_dict() for r in results],
                        {
                            name: value
                            for name, value in counters.items()
                            if name.startswith(("sfc.", "plan_cache."))
                        },
                    )
                )
            return out

        system = build_plan_tree_system(curve)
        got = passes(system)
        monkeypatch.setattr(sfc_clusters, "_refine", reference_refine_cluster)
        want = passes(build_plan_tree_system(curve))
        assert got == want
        if engine == "optimized":
            assert got[2][2]["plan_cache.tree_hits"] > 0
            assert got[2][2]["sfc.refine.scalar_cells"] == got[1][2]["sfc.refine.scalar_cells"]
            assert system.curve.refine_table
        else:
            assert "sfc.refine.scalar_cells" not in got[0][2]


class TestValueTypes:
    CELL = Cell(level=1, prefix=2, coords=(1, 0), state=(0, 1))
    FULL = FullRange(3, 9)
    CLUSTER = Cluster(level=1, pieces=(FULL, CELL))
    HILBERT_CELL = Cell(level=1, prefix=2, coords=(1, 0), state=HilbertState(1, 2))
    ONION_CELL = Cell(level=1, prefix=2, coords=(1, 0), state=OnionState(1, 2))

    @pytest.mark.parametrize("value", [CELL, FULL, CLUSTER])
    def test_immutable(self, value):
        with pytest.raises(AttributeError):
            value.level = 7
        with pytest.raises(AttributeError):
            value.extra = 7
        with pytest.raises(TypeError):
            value[0] = 7

    def test_equal_and_hashable_by_value(self):
        twin = Cluster(
            level=1,
            pieces=(FullRange(low=3, high=9), Cell(1, 2, (1, 0), (0, 1))),
        )
        assert twin == self.CLUSTER and twin is not self.CLUSTER
        assert hash(twin) == hash(self.CLUSTER)
        assert len({twin, self.CLUSTER, twin.pieces[0], self.FULL}) == 2
        assert twin != Cluster(level=2, pieces=twin.pieces)
        assert FullRange(3, 9) != FullRange(3, 10)

    @pytest.mark.parametrize("value", [CELL, FULL, CLUSTER, HILBERT_CELL, ONION_CELL])
    def test_pickle_round_trip(self, value):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(value, protocol))
            assert clone == value
            assert type(clone) is type(value)
            if isinstance(value, Cell):
                assert type(clone.state) is type(value.state)
        pieces = pickle.loads(pickle.dumps(self.CLUSTER)).pieces
        assert [type(p) for p in pieces] == [FullRange, Cell]

    def test_fullrange_validates(self):
        with pytest.raises(ValueError):
            FullRange(5, 4)
        with pytest.raises(ValueError):
            FullRange(low=5, high=4)
        assert FullRange(4, 4) == FullRange(low=4, high=4)

    def test_kernel_output_uses_the_public_types(self):
        curve = HilbertCurve(2, 4)
        region = Region.from_bounds([(1, 9), (2, 14)])
        seen = set()
        for cluster in refine_cluster(curve, root_cluster(curve, region), region):
            assert type(cluster) is Cluster
            for piece in refine_cluster(curve, cluster, region)[0].pieces:
                seen.add(type(piece))
        assert seen == {Cell, FullRange}
