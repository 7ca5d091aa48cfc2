"""Document workloads for the P2P storage scenario (paper §4.1.1–4.1.2).

Generates unique keyword combinations ("keys") over a Zipf vocabulary for
2-D and 3-D keyword spaces, matching the paper's setup: "up to 10^5 keys
(unique keyword combinations) in the system, each of which could be
associated with one or more data elements".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.keywords.dimensions import WordDimension
from repro.keywords.space import KeywordSpace
from repro.util.rng import RandomLike, as_generator
from repro.workloads.corpus import Vocabulary

__all__ = ["DocumentWorkload", "storage_space"]


def storage_space(dims: int, bits: int = 20) -> KeywordSpace:
    """The paper's storage keyword space: ``dims`` word dimensions."""
    if dims < 1:
        raise WorkloadError(f"dims must be >= 1, got {dims}")
    return KeywordSpace(
        [WordDimension(f"kw{i + 1}") for i in range(dims)], bits=bits
    )


@dataclass
class DocumentWorkload:
    """A reproducible set of unique document keys over a vocabulary."""

    space: KeywordSpace
    vocabulary: Vocabulary
    keys: list[tuple[str, ...]]

    @classmethod
    def generate(
        cls,
        dims: int,
        n_keys: int,
        vocabulary_size: int = 2000,
        zipf_exponent: float = 1.0,
        bits: int = 20,
        rng: RandomLike = None,
    ) -> "DocumentWorkload":
        """Generate ``n_keys`` distinct keyword combinations."""
        gen = as_generator(rng)
        space = storage_space(dims, bits=bits)
        vocab = Vocabulary(vocabulary_size, exponent=zipf_exponent, rng=gen)
        # Rejection-sample distinct combinations; Zipf skew makes collisions
        # common, so draw in batches.  Keys keep their (seeded) generation
        # order so a prefix slice is an unbiased smaller workload — the
        # paper's sweeps grow keys and nodes together.
        keys: list[tuple[str, ...]] = []
        seen: set[tuple[str, ...]] = set()
        guard = 0
        while len(keys) < n_keys:
            batch = max(n_keys - len(keys), 1024)
            words = vocab.sample(batch * dims, rng=gen)
            for i in range(batch):
                key = tuple(words[i * dims : (i + 1) * dims])
                if key not in seen:
                    seen.add(key)
                    keys.append(key)
                    if len(keys) >= n_keys:
                        break
            guard += 1
            if guard > 10_000:  # pragma: no cover - defensive
                raise WorkloadError(
                    "cannot generate enough distinct keys; "
                    "increase vocabulary_size or lower n_keys"
                )
        return cls(space=space, vocabulary=vocab, keys=keys)

    def count_matching(self, query) -> int:
        """Oracle count of keys matching a query (workload-side, no system)."""
        match = self.space.matcher(query)
        normalize = self.space.validate_key
        return sum(1 for key in self.keys if match(normalize(key)))
