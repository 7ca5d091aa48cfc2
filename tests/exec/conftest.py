"""A small grown document system, shared by the pool and spec tests."""

from __future__ import annotations

from types import SimpleNamespace

from repro.experiments.figures import grow_system
from repro.util.rng import as_generator
from repro.workloads.documents import DocumentWorkload


def grown(dims, n_nodes, n_keys, vocabulary_size, bits, seed) -> SimpleNamespace:
    """``.workload`` and the ``.system`` grown from it, off one seeded generator."""
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        dims, n_keys, vocabulary_size=vocabulary_size, bits=bits, rng=gen
    )
    return SimpleNamespace(
        system=grow_system(workload, n_nodes, n_keys, gen), workload=workload
    )
