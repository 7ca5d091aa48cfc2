"""SystemSpec: the spawn-mode rebuild must reproduce a converged system."""

from __future__ import annotations

from repro.config import Config, using
from repro.exec import SystemSpec
from repro.store import StoreSpec
from repro.workloads.queries import q1_queries
from tests.exec.conftest import grown


def test_spec_rebuild_preserves_membership_and_data():
    built = grown(
        dims=2, n_nodes=12, n_keys=120, vocabulary_size=30, bits=10, seed=4
    )
    system = built.system
    rebuilt = SystemSpec.from_system(system).build()

    assert rebuilt.overlay.node_ids() == system.overlay.node_ids()
    assert set(rebuilt.stores) == set(system.stores)
    for node_id, store in system.stores.items():
        original = [(e.index, e.key, str(e.payload)) for e in store.all_elements()]
        copied = [
            (e.index, e.key, str(e.payload))
            for e in rebuilt.stores[node_id].all_elements()
        ]
        assert copied == original, f"store {node_id} diverged after rebuild"


def test_spec_rebuild_answers_queries_identically():
    built = grown(
        dims=2, n_nodes=12, n_keys=120, vocabulary_size=30, bits=10, seed=4
    )
    system = built.system
    rebuilt = SystemSpec.from_system(system).build()
    queries = q1_queries(built.workload, count=12, rng=2)

    original = system.query_many(queries, workers=1, seed=6)
    copied = rebuilt.query_many(queries, workers=1, seed=6)
    assert [
        [(e.index, str(e.payload)) for e in r.matches] for r in original.results
    ] == [[(e.index, str(e.payload)) for e in r.matches] for r in copied.results]
    assert original.stats.as_dict() == copied.stats.as_dict()


def test_spec_rebuild_consults_no_default():
    """A worker's system is the spec's, whatever config is active around it."""
    with using(Config()):
        system = grown(
            dims=2, n_nodes=8, n_keys=40, vocabulary_size=20, bits=8, seed=1
        ).system
    spec = SystemSpec.from_system(system)
    with using(Config(curve="onion", store="sqlite", result_cache=8)):
        rebuilt = spec.build()
    assert rebuilt.curve.name == "hilbert"
    assert rebuilt.store_spec == StoreSpec("local")
    assert rebuilt.result_cache is None


def test_spec_is_picklable():
    import pickle

    built = grown(
        dims=2, n_nodes=8, n_keys=40, vocabulary_size=20, bits=8, seed=1
    )
    spec = SystemSpec.from_system(built.system)
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.node_ids == spec.node_ids
    assert len(clone.elements) == len(spec.elements)
    assert clone.build().overlay.node_ids() == built.system.overlay.node_ids()
