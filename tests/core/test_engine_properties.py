"""Property-based tests of the end-to-end query guarantee.

Hypothesis generates random workloads, topologies and queries; the
distributed engines must always return exactly the brute-force match set
(the paper's central guarantee), and the cost metrics must satisfy their
structural invariants.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    KeywordSpace,
    NaiveEngine,
    NumericDimension,
    OptimizedEngine,
    SquidSystem,
    WordDimension,
)
from repro.core import planner
from repro.core.metrics import merge_index_ranges
from repro.sfc import CURVES, make_curve
from repro.sfc.clusters import refine_cluster, resolve_clusters, root_cluster
from repro.store.base import normalize_ranges
from tests.sfc.test_clusters import random_region

words = st.text(alphabet="abcdef", min_size=1, max_size=6)
small_words = st.text(alphabet="abc", min_size=1, max_size=4)


def _build_word_system(keys, n_nodes, seed, bits=8):
    space = KeywordSpace([WordDimension("k1"), WordDimension("k2")], bits=bits)
    system = SquidSystem.create(space, n_nodes=n_nodes, seed=seed)
    for i, key in enumerate(keys):
        system.publish(key, payload=i)
    return system


@st.composite
def word_scenario(draw):
    keys = draw(
        st.lists(st.tuples(small_words, small_words), min_size=1, max_size=30)
    )
    n_nodes = draw(st.integers(min_value=2, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    prefix = draw(small_words)
    return keys, n_nodes, seed, prefix


class TestGuaranteeProperty:
    @given(word_scenario())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_prefix_query_exact(self, scenario):
        keys, n_nodes, seed, prefix = scenario
        system = _build_word_system(keys, n_nodes, seed)
        query = f"({prefix}*, *)"
        got = sorted(e.payload for e in system.query(query, rng=seed).matches)
        want = sorted(e.payload for e in system.brute_force_matches(query))
        assert got == want

    @given(word_scenario())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_exact_query_finds_published_key(self, scenario):
        keys, n_nodes, seed, _ = scenario
        system = _build_word_system(keys, n_nodes, seed)
        target = keys[0]
        query = f"({target[0]}, {target[1]})"
        got = {e.key for e in system.query(query, rng=seed).matches}
        assert target in got

    @given(word_scenario())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_engines_agree(self, scenario):
        keys, n_nodes, seed, prefix = scenario
        system = _build_word_system(keys, n_nodes, seed)
        query = f"({prefix}*, *)"
        opt = sorted(e.payload for e in system.query(query, engine=OptimizedEngine(), rng=0).matches)
        naive = sorted(e.payload for e in system.query(query, engine=NaiveEngine(), rng=0).matches)
        assert opt == naive

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=100),
            ),
            min_size=1,
            max_size=25,
        ),
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0, max_value=100),
        st.floats(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_numeric_range_exact(self, values, n_nodes, a, b, seed):
        low, high = sorted((a, b))
        space = KeywordSpace(
            [NumericDimension("x", 0, 100), NumericDimension("y", 0, 100)], bits=7
        )
        system = SquidSystem.create(space, n_nodes=n_nodes, seed=seed)
        for i, pair in enumerate(values):
            system.publish(pair, payload=i)
        query = f"({low}-{high}, *)"
        got = sorted(e.payload for e in system.query(query, rng=seed).matches)
        want = sorted(i for i, (x, _) in enumerate(values) if low <= x <= high)
        assert got == want


class TestCostInvariants:
    @given(word_scenario())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_metric_ordering(self, scenario):
        keys, n_nodes, seed, prefix = scenario
        system = _build_word_system(keys, n_nodes, seed)
        stats = system.query(f"({prefix}*, *)", rng=seed).stats
        assert stats.data_nodes <= stats.processing_nodes
        assert stats.processing_nodes <= stats.routing_nodes
        assert stats.processing_node_count <= n_nodes
        assert stats.hops >= 0
        assert stats.messages >= 0

    @given(word_scenario())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_wildcard_all_visits_everyone(self, scenario):
        keys, n_nodes, seed, _ = scenario
        system = _build_word_system(keys, n_nodes, seed)
        stats = system.query("(*, *)", rng=seed).stats
        assert stats.processing_node_count == n_nodes

    @given(word_scenario())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_repeatable_from_same_origin(self, scenario):
        keys, n_nodes, seed, prefix = scenario
        system = _build_word_system(keys, n_nodes, seed)
        origin = system.overlay.node_ids()[0]
        a = system.query(f"({prefix}*, *)", origin=origin, rng=0).stats
        b = system.query(f"({prefix}*, *)", origin=origin, rng=0).stats
        assert a.as_row() == b.as_row()


class TestVisitWindow:
    """A cluster is one contiguous curve segment, so the window a visit
    scans — the cluster's pieces clipped to ``[low, high]`` — is one range.
    ``planner.clip`` computes that range directly, and ``planner.pieces``
    counts the pieces it unites; the per-piece walk is the statement both
    must equal."""

    @given(
        family=st.sampled_from(sorted(CURVES)),
        shape=st.sampled_from([(2, 4), (3, 3)]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_window_of_a_cluster_is_one_range(self, family, shape, seed):
        curve = make_curve(family, *shape)
        rng = np.random.default_rng(seed)
        region = random_region(curve, rng)
        clusters = [root_cluster(curve, region)]
        for _ in range(int(rng.integers(0, curve.order + 1))):
            k = int(rng.integers(0, curve.size)) if rng.integers(0, 2) else 0
            clusters = [
                child
                for cluster in clusters
                for child in (
                    [cluster] if cluster.is_resolved
                    else refine_cluster(curve, cluster, region, min_index=k)
                )
            ] or clusters
        for cluster in clusters:
            low, high = (int(v) for v in rng.integers(0, curve.size, size=2))
            one = (max(cluster.min_index(curve), low), min(cluster.max_index(curve), high))
            want = [one] if one[0] <= one[1] else []
            per_piece = [
                (max(lo, low), min(hi, high))
                for lo, hi in cluster.iter_index_ranges(curve)
                if max(lo, low) <= min(hi, high)
            ]
            assert normalize_ranges(per_piece) == want
            assert planner.clip(curve, cluster, low, high) == want
            assert planner.pieces(curve, cluster, low, high) == len(per_piece)


class TestScanFootprint:
    """The union of a complete run's scan windows contains the region's
    curve image — on purpose: the result cache files the merged windows as
    an entry's invalidation footprint, so a hole in them is a stale answer."""

    ENGINES = {
        "opt-agg-d1": lambda: OptimizedEngine(aggregate=True, local_depth=1),
        "opt-noagg-d2": lambda: OptimizedEngine(aggregate=False, local_depth=2),
        "naive": NaiveEngine,
    }
    LETTERS = "abcdefgh"

    @given(
        family=st.sampled_from(sorted(CURVES)),
        engine=st.sampled_from(sorted(ENGINES)),
        n_nodes=st.sampled_from([1, 2, 8, 64]),  # sole-node and wrap-node visits
        kind=st.sampled_from(["q1", "q2", "q3"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_scan_windows_cover_the_region(self, family, engine, n_nodes, kind, seed):
        rng = np.random.default_rng(seed)
        if kind == "q3":
            space = KeywordSpace(
                [NumericDimension(name, 0, 100) for name in "xyz"], bits=4
            )
            bounds = np.sort(rng.uniform(0, 100, size=(3, 2)), axis=1)
            query = "(" + ", ".join(f"{low:.1f}-{high:.1f}" for low, high in bounds) + ")"
            keys = [tuple(key) for key in rng.uniform(0, 100, size=(20, 3))]
        else:
            space = KeywordSpace([WordDimension("k1"), WordDimension("k2")], bits=6)

            def word():
                return "".join(rng.choice(list(self.LETTERS), size=rng.integers(1, 4)))

            first = word() + ("*" if rng.integers(0, 2) else "")
            query = f"({first}, *)" if kind == "q1" else f"({first}, {word()}*)"
            keys = [(word(), word()) for _ in range(20)]
        # Windows are recorded for the result cache: the system needs one.
        system = SquidSystem.create(
            space, n_nodes=n_nodes, curve=family, seed=seed, result_cache=True
        )
        system.publish_many(keys)
        result = system.query(query, engine=self.ENGINES[engine](), rng=seed)
        assert result.complete and not result.stats.result_cache_hit
        want = system.brute_force_matches(query)
        assert sorted(map(id, result.matches)) == sorted(map(id, want))

        footprint = merge_index_ranges(result.scanned_ranges)
        assert all(low <= high for low, high in footprint)
        assert all(a[1] + 1 < b[0] for a, b in zip(footprint, footprint[1:]))
        region = space.region(result.query)
        for low, high in resolve_clusters(system.curve, region):
            assert any(f_low <= low and high <= f_high for f_low, f_high in footprint), (
                f"cluster [{low}, {high}] was not scanned: {footprint}"
            )
        # Each raw window was scanned by — and lies inside the arc of — one
        # processing node, which is why it is finer than any fixed-level cover.
        for low, high in result.scanned_ranges:
            owner = system.overlay.owner(low)
            assert owner in result.stats.processing_nodes
            assert any(
                arc_low <= low and high <= arc_high
                for arc_low, arc_high in system._owned_segments(owner)
            ), f"window [{low}, {high}] leaves the arc of node {owner}"
