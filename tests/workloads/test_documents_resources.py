"""Tests for document and resource workload generators."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.keywords.query import Exact, Query, Wildcard
from repro.workloads.documents import DocumentWorkload, storage_space
from repro.workloads.resources import GRID_ATTRIBUTES, ResourceWorkload, grid_space


class TestStorageSpace:
    def test_dims(self):
        space = storage_space(3, bits=12)
        assert space.dims == 3
        assert space.bits == 12

    def test_validation(self):
        with pytest.raises(WorkloadError):
            storage_space(0)


class TestDocumentWorkload:
    def test_key_count_and_uniqueness(self):
        wl = DocumentWorkload.generate(2, 500, vocabulary_size=800, rng=0)
        assert len(wl.keys) == 500
        assert len(set(wl.keys)) == 500

    def test_keys_match_dims(self):
        wl = DocumentWorkload.generate(3, 200, rng=1)
        assert all(len(k) == 3 for k in wl.keys)

    def test_deterministic(self):
        a = DocumentWorkload.generate(2, 300, rng=9)
        b = DocumentWorkload.generate(2, 300, rng=9)
        assert a.keys == b.keys

    def test_keys_are_publishable(self):
        wl = DocumentWorkload.generate(2, 100, rng=2)
        for key in wl.keys[:20]:
            coords = wl.space.coordinates(key)
            assert len(coords) == 2

    def test_popularity_skew_in_keys(self):
        """Zipf sampling concentrates keys on popular first words."""
        wl = DocumentWorkload.generate(2, 2000, vocabulary_size=1000, rng=3)
        counts = {}
        for key in wl.keys:
            counts[key[0]] = counts.get(key[0], 0) + 1
        assert max(counts.values()) >= 20

    def test_count_matching(self):
        wl = DocumentWorkload.generate(2, 300, rng=4)
        word = wl.keys[0][0]
        q = Query((Exact(word), Wildcard()))
        count = wl.count_matching(q)
        assert count >= 1
        assert count == sum(1 for k in wl.keys if k[0] == word)


class TestGridSpace:
    def test_default(self):
        space = grid_space()
        assert space.dims == 3
        assert [d.name for d in space.dimensions] == ["memory", "cpu", "bandwidth"]

    def test_custom(self):
        space = grid_space(["storage", "cost"], bits=10)
        assert space.dims == 2

    def test_unknown_attribute(self):
        with pytest.raises(WorkloadError):
            grid_space(["gpu"])


class TestResourceWorkload:
    def test_generation(self):
        wl = ResourceWorkload.generate(500, rng=0)
        assert len(wl.keys) == 500
        assert all(len(k) == 3 for k in wl.keys)

    def test_values_in_domain(self):
        wl = ResourceWorkload.generate(300, rng=1)
        for key in wl.keys:
            for attr, value in zip(wl.attributes, key):
                lo, hi, _ = GRID_ATTRIBUTES[attr]
                assert lo <= value <= hi

    def test_values_cluster_at_configurations(self):
        wl = ResourceWorkload.generate(1000, jitter=0.01, rng=2)
        memory = np.array([k[0] for k in wl.keys])
        configs = np.array(GRID_ATTRIBUTES["memory"][2], dtype=float)
        # Every value within 1% of some standard configuration.
        rel = np.min(
            np.abs(memory[:, None] - configs[None, :]) / configs[None, :], axis=1
        )
        assert np.all(rel <= 0.011)

    def test_deterministic(self):
        a = ResourceWorkload.generate(100, rng=7)
        b = ResourceWorkload.generate(100, rng=7)
        assert a.keys == b.keys

    def test_count_matching(self):
        wl = ResourceWorkload.generate(400, rng=3)
        count = wl.count_matching("(*, *, *)")
        assert count == 400

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ResourceWorkload.generate(0)
