"""Seeded randomness helpers.

Every stochastic component in the library accepts either an integer seed or a
preconstructed :class:`numpy.random.Generator`; this module centralizes the
coercion so experiments stay reproducible end-to-end.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["RandomLike", "as_generator"]

RandomLike = Union[int, np.random.Generator, None]


def as_generator(rng: RandomLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh nondeterministic generator, an ``int`` seeds a new
    PCG64 generator, and an existing generator is returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot interpret {rng!r} as a random generator")

