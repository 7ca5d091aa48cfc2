"""Tests for the synthetic corpus."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.corpus import COMMON_STEMS, Vocabulary, zipf_weights


class TestZipfWeights:
    def test_normalized(self):
        w = zipf_weights(100)
        assert w.sum() == pytest.approx(1.0)

    def test_decreasing(self):
        w = zipf_weights(50, exponent=1.2)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_zero_exponent_uniform(self):
        w = zipf_weights(10, exponent=0.0)
        assert np.allclose(w, 0.1)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0)
        with pytest.raises(WorkloadError):
            zipf_weights(10, exponent=-1)


class TestVocabulary:
    def test_size_and_uniqueness(self):
        vocab = Vocabulary(size=500, rng=0)
        assert len(vocab) == 500
        assert len(set(vocab.words)) == 500

    def test_all_lowercase_alpha(self):
        vocab = Vocabulary(size=300, rng=1)
        assert all(w.isalpha() and w.islower() for w in vocab.words)

    def test_deterministic(self):
        a = Vocabulary(size=200, rng=7)
        b = Vocabulary(size=200, rng=7)
        assert a.words == b.words

    def test_prefix_families_exist(self):
        """Real-corpus property: many words share 4-char prefixes."""
        vocab = Vocabulary(size=2000, rng=2)
        prefixes = {}
        for w in vocab.words:
            prefixes.setdefault(w[:4], []).append(w)
        families = [v for v in prefixes.values() if len(v) >= 3]
        assert len(families) > 50

    def test_sampling_is_skewed(self):
        vocab = Vocabulary(size=500, exponent=1.0, rng=3)
        sample = vocab.sample(5000, rng=4)
        counts = {}
        for w in sample:
            counts[w] = counts.get(w, 0) + 1
        top = max(counts.values())
        assert top > 5000 / 500 * 5  # far above uniform expectation

    def test_rank_of(self):
        vocab = Vocabulary(size=100, rng=6)
        assert vocab.rank_of(vocab.words[7]) == 7
        with pytest.raises(WorkloadError):
            vocab.rank_of("notaword123")

    def test_validation(self):
        with pytest.raises(WorkloadError):
            Vocabulary(size=0)

    def test_large_vocabulary(self):
        vocab = Vocabulary(size=6000, rng=8)
        assert len(set(vocab.words)) == 6000


class TestStems:
    def test_stems_sorted_and_unique(self):
        assert len(set(COMMON_STEMS)) == len(COMMON_STEMS)
        assert all(s.isalpha() and s.islower() for s in COMMON_STEMS)
