"""Tests for the query EXPLAIN API."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KeywordSpace, SquidSystem, WordDimension
from repro.sfc import CURVES
from repro.sfc.clusters import count_clusters_per_level, resolve_clusters

terms = st.one_of(
    st.just("*"),
    st.text(alphabet="abcmnz", min_size=1, max_size=5),
    st.text(alphabet="abcmnz", min_size=1, max_size=3).map(lambda w: w + "*"),
)


def two_call_explain(system, query):
    """``explain`` as it was: the level counts and the node-granularity
    ranges from two separate refinements, the depth rule inline."""
    q = system.space.as_query(query)
    region = system.space.region(q)
    curve = system.curve
    n = max(len(system.overlay), 2)
    level = min(curve.order, max(1, (n.bit_length() + curve.dims - 1) // curve.dims + 1))
    ranges = resolve_clusters(curve, region, max_level=level)
    touched = {system.overlay.owner(i) for low, high in ranges for i in (low, high)}
    return {
        "query": str(q),
        "region_bounds": [(iv.low, iv.high) for iv in region.boxes[0].intervals],
        "clusters_per_level": count_clusters_per_level(curve, region, max_level=level),
        "clusters_at_node_granularity": len(ranges),
        "estimated_peers_lower_bound": len(touched),
        "index_bits": curve.index_bits,
    }


class TestExplain:
    def test_keys_present(self, storage_system):
        plan = storage_system.explain("(comp*, *)")
        assert set(plan) == {
            "query",
            "region_bounds",
            "clusters_per_level",
            "clusters_at_node_granularity",
            "estimated_peers_lower_bound",
            "index_bits",
        }

    def test_region_bounds_shape(self, storage_system):
        plan = storage_system.explain("(comp*, *)")
        assert len(plan["region_bounds"]) == 2
        lo, hi = plan["region_bounds"][1]
        assert lo == 0 and hi == storage_system.space.side - 1  # wildcard dim

    def test_cluster_counts_monotone(self, storage_system):
        plan = storage_system.explain("(comp*, net*)")
        counts = plan["clusters_per_level"]
        assert counts == sorted(counts)
        assert counts[0] == 1

    def test_exact_query_is_one_cluster(self, hilbert_storage_system):
        # Hilbert-calibrated: the exact terms' interval stays one cluster on
        # one peer; other families may split it, so the fixture pins the curve.
        plan = hilbert_storage_system.explain("(computer, network)")
        assert plan["clusters_at_node_granularity"] == 1
        assert plan["estimated_peers_lower_bound"] == 1

    def test_broader_query_estimates_more_peers(self, storage_system):
        narrow = storage_system.explain("(computer, network)")
        broad = storage_system.explain("(*, net*)")
        assert (
            broad["estimated_peers_lower_bound"]
            >= narrow["estimated_peers_lower_bound"]
        )

    def test_explain_touches_no_store(self, storage_system):
        """Explain is an estimate: no messages, no store access needed."""
        before = storage_system.total_elements()
        storage_system.explain("(*, *)")
        assert storage_system.total_elements() == before

    def test_estimate_correlates_with_actual_cost(self, storage_system):
        plan = storage_system.explain("(comp*, *)")
        actual = storage_system.query("(comp*, *)", rng=0).stats
        # The lower bound must not exceed the actual processing population
        # by more than the snapshot granularity allows.
        assert plan["estimated_peers_lower_bound"] <= 3 * max(
            actual.processing_node_count, 1
        )

    @given(
        curve=st.sampled_from(sorted(CURVES)),
        dims=st.integers(2, 3),
        bits=st.integers(4, 8),
        n_nodes=st.integers(1, 200),
        query=st.lists(terms, min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_walk_equals_the_two_call_form(self, curve, dims, bits, n_nodes, query):
        space = KeywordSpace([WordDimension(f"k{i}") for i in range(dims)], bits=bits)
        system = SquidSystem.create(space, n_nodes=n_nodes, curve=curve, seed=n_nodes)
        text = "(" + ", ".join(query[:dims]) + ")"
        assert system.explain(text) == two_call_explain(system, text)
