"""Seeded demo systems and request workloads for the serving layer.

``python -m repro serve`` needs a populated system to serve, the load
generator's ``--self-serve`` mode needs the *same* system so a twin can
verify answers, and the served-identity tests (``tests/net/``) need both
plus a skewed request list.  This module is the single source of those
fixtures: every builder is a pure function of its seed, so a server
process and a verification process construct bit-identical worlds
independently.

The corpus is a word x numeric-size keyword space that all four query
classes hit, and the request stream comes from
:func:`repro.workloads.trace.synthetic_trace` — Zipf popularity with
bursts.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from repro.core.system import SquidSystem
from repro.keywords.dimensions import NumericDimension, WordDimension
from repro.keywords.space import KeywordSpace
from repro.workloads.trace import synthetic_trace

__all__ = ["build_demo_system", "demo_queries", "demo_requests"]

#: Document vocabulary; stems share 4-char prefixes so prefix queries and
#: exact queries both hit.
WORD_STEMS = [
    "computer", "computation", "compiler", "network", "netbook", "neural",
    "database", "dataflow", "storage", "stochastic", "stream", "search",
    "parallel", "partition", "peer", "protocol", "query", "quantum",
]

#: Sizes present in the corpus (exact size queries hit these).
SIZES = [128, 256, 300, 512, 640, 1024]


def build_demo_system(
    seed: int = 42,
    n_nodes: int = 64,
    n_docs: int = 2_000,
    bits: int = 12,
    engine: str = "optimized",
    curve: str | None = None,
    result_cache: Any = None,
) -> SquidSystem:
    """A populated (keyword, size) system — identical for identical args."""
    space = KeywordSpace(
        [WordDimension("keyword"), NumericDimension("size", 1, 1024)], bits=bits
    )
    system = SquidSystem.create(
        space,
        n_nodes=n_nodes,
        seed=seed,
        curve=curve,
        engine=engine,
        result_cache=result_cache,
    )
    rng = random.Random(seed)
    keys = [
        (rng.choice(WORD_STEMS), float(rng.choice(SIZES)))
        for _ in range(n_docs)
    ]
    system.publish_many(keys, payloads=range(n_docs))
    return system


def demo_queries(seed: int, count: int) -> list[str]:
    """A seeded mixed-class query pool (exact / prefix / wildcard / range)."""
    rng = random.Random(seed * 7 + 1)
    queries: list[str] = []
    for i in range(count):
        cls = ("exact", "prefix", "wildcard", "range")[i % 4]
        stem = rng.choice(WORD_STEMS)
        size = rng.choice(SIZES)
        if cls == "exact":
            queries.append(f"({stem}, {size})")
        elif cls == "prefix":
            queries.append(f"({stem[:4]}*, {size})")
        elif cls == "wildcard":
            queries.append(f"(*, {size})")
        else:
            lo = rng.choice([s for s in SIZES if s < 1024])
            queries.append(f"(*, {lo}-1024)")
    return queries


def demo_requests(
    system: SquidSystem | None,
    seed: int,
    count: int,
    pool_size: int = 32,
    zipf_exponent: float = 1.0,
    burstiness: float = 0.2,
) -> list[dict[str, Any]]:
    """``count`` query requests drawn from a skewed synthetic trace.

    Each request is a JSON-ready dict.  With a ``system``, every request
    carries an explicitly chosen (seeded) ``origin``, so a served run and
    an in-process verification run resolve from identical entry points —
    the precondition for the served bit-identity tests.  Without one
    (load-generating against a remote server whose node ids are unknown)
    each request carries a derived ``seed`` instead, making the *server's*
    origin selection reproducible per request.
    """
    space = (
        system.space
        if system is not None
        else KeywordSpace(
            [WordDimension("keyword"), NumericDimension("size", 1, 1024)], bits=12
        )
    )
    pool = [space.as_query(t) for t in demo_queries(seed, pool_size)]
    trace = synthetic_trace(
        pool,
        count,
        zipf_exponent=zipf_exponent,
        burstiness=burstiness,
        rng=seed + 1,
    )
    if system is None:
        return [
            {"query": str(op.query), "seed": seed * 1_000_003 + i}
            for i, op in enumerate(trace)
        ]
    ids = system.overlay.node_ids()
    gen = np.random.default_rng(seed + 2)
    return [
        {
            "query": str(op.query),
            "origin": int(ids[int(gen.integers(0, len(ids)))]),
        }
        for op in trace
    ]
