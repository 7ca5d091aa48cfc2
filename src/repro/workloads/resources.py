"""Grid resource workloads (paper Figure 1b and the range-query evaluation).

Models computational resources described by globally defined numeric
attributes — memory, CPU frequency, base bandwidth, storage, cost — with the
clustered, non-uniform value distributions real inventories have (machines
come in standard configurations, not uniform sizes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.keywords.dimensions import NumericDimension
from repro.keywords.space import KeywordSpace
from repro.util.rng import RandomLike, as_generator

__all__ = ["GRID_ATTRIBUTES", "grid_space", "ResourceWorkload"]

#: name -> (minimum, maximum, standard configuration values)
GRID_ATTRIBUTES: dict[str, tuple[float, float, list[float]]] = {
    "memory": (0.0, 4096.0, [128, 256, 512, 1024, 2048, 4096]),
    "cpu": (0.0, 4000.0, [400, 800, 1200, 1600, 2400, 3200]),
    "bandwidth": (0.0, 1000.0, [10, 100, 155, 622, 1000]),
    "storage": (0.0, 2048.0, [32, 64, 128, 256, 512, 1024, 2048]),
    "cost": (0.0, 100.0, [5, 10, 20, 40, 80]),
}


def grid_space(attributes: list[str] | None = None, bits: int = 16) -> KeywordSpace:
    """A keyword space over the named grid attributes (default: 3-D
    memory/cpu/bandwidth, the paper's range-query example)."""
    names = attributes if attributes is not None else ["memory", "cpu", "bandwidth"]
    dims = []
    for name in names:
        if name not in GRID_ATTRIBUTES:
            raise WorkloadError(
                f"unknown attribute {name!r}; choose from {sorted(GRID_ATTRIBUTES)}"
            )
        lo, hi, _ = GRID_ATTRIBUTES[name]
        dims.append(NumericDimension(name, lo, hi))
    return KeywordSpace(dims, bits=bits)


@dataclass
class ResourceWorkload:
    """A reproducible inventory of grid resources."""

    space: KeywordSpace
    attributes: list[str]
    keys: list[tuple[float, ...]]

    @classmethod
    def generate(
        cls,
        n_resources: int,
        attributes: list[str] | None = None,
        bits: int = 16,
        jitter: float = 0.05,
        rng: RandomLike = None,
    ) -> "ResourceWorkload":
        """Generate resources drawn from standard configurations.

        Each attribute value is a standard configuration point with small
        multiplicative jitter (e.g. reported free memory), yielding the
        clustered, sparse population the paper's index space exhibits.
        """
        if n_resources < 1:
            raise WorkloadError("n_resources must be >= 1")
        gen = as_generator(rng)
        names = attributes if attributes is not None else ["memory", "cpu", "bandwidth"]
        space = grid_space(names, bits=bits)
        columns = []
        for name in names:
            lo, hi, configs = GRID_ATTRIBUTES[name]
            picks = gen.choice(len(configs), size=n_resources)
            base = np.asarray(configs, dtype=float)[picks]
            noise = 1.0 + gen.uniform(-jitter, 0.0, size=n_resources)
            columns.append(np.clip(base * noise, lo, hi))
        matrix = np.stack(columns, axis=1)
        keys = [tuple(float(v) for v in row) for row in matrix]
        return cls(space=space, attributes=list(names), keys=keys)

    def count_matching(self, query) -> int:
        """Oracle count of resources matching a query."""
        match = self.space.matcher(query)
        normalize = self.space.validate_key
        return sum(1 for key in self.keys if match(normalize(key)))
