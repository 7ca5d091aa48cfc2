"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import as_generator


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_generator(42).integers(0, 1000, size=10)
        b = as_generator(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_numpy_integer_seed(self):
        gen = as_generator(np.int64(7))
        assert isinstance(gen, np.random.Generator)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_generator("seed")

