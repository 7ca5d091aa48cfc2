"""A node visit pays only for what its run carries.

* A plain run — no fault plane, latency model or tracer — never enters
  resilient delivery, latency arithmetic or span bookkeeping: with those
  entry points made to raise it still returns the same answer.
* A visit whose window holds no element is answered by one probe of the
  store's sorted index: the window reaches neither ``scan_ranges`` nor the
  post-filter, yet it is part of ``QueryResult.scanned_ranges``, so a later
  publish into it still invalidates a cached answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import KeywordSpace, NumericDimension, SquidSystem, WordDimension
from repro.core.engine import QueryEngine
from repro.obs.trace import QueryTrace
from tests.core.conftest import WORDS

# One query of each class: exact keywords (Q1), partial keywords and
# wildcards (Q2), ranges (Q3).
QUERIES = ("(computer, 512)", "(comp*, *)", "(*, 100-600)", "(net*, 200-900)")


def _system(curve: str, result_cache=None) -> SquidSystem:
    space = KeywordSpace(
        [WordDimension("kw"), NumericDimension("size", 0, 1024)], bits=8
    )
    system = SquidSystem.create(
        space, n_nodes=40, curve=curve, seed=3, result_cache=result_cache
    )
    rng = np.random.default_rng(11)
    keys = [
        (WORDS[rng.integers(len(WORDS))], float(rng.integers(0, 1025)))
        for _ in range(500)
    ]
    system.publish_many(keys, payloads=range(len(keys)))
    return system


def _answer(result):
    stats = result.stats.as_dict()
    del stats["plan_cache_hit"]  # a repeated query reuses its plan
    return (
        [element.payload for element in result.matches],
        stats,
        result.complete,
        result.unresolved_ranges,
    )


def _raise(*args, **kwargs):
    raise AssertionError("a plain run entered an absent plane")


@pytest.mark.parametrize("curve", ["hilbert", "onion"])
@pytest.mark.parametrize("engine", ["optimized", "naive"])
def test_a_plain_run_never_enters_an_absent_plane(monkeypatch, curve, engine):
    system = _system(curve)
    origin = system.overlay.node_ids()[0]
    expected = [_answer(system.query(q, origin=origin, engine=engine)) for q in QUERIES]
    for name in ("_deliver_resilient", "_path_latency", "_local_delay"):
        monkeypatch.setattr(QueryEngine, name, _raise)
    monkeypatch.setattr(QueryTrace, "new_span", _raise)
    monkeypatch.setattr(QueryTrace, "emit", _raise)
    got = [_answer(system.query(q, origin=origin, engine=engine)) for q in QUERIES]
    assert got == expected
    assert any(payloads for payloads, *_ in got)


def _observe(system):
    """Record every window handed to a store's ``scan_ranges`` and every
    list handed to a run's post-filter."""
    scanned, kept = [], []
    for store in system.stores.values():
        def scan_ranges(ranges, _inner=store.scan_ranges):
            scanned.extend(ranges)
            return _inner(ranges)

        store.scan_ranges = scan_ranges
    space = system.space
    keeper = space.keeper

    def recording_keeper(query):
        keep = keeper(query)

        def recording_keep(elements):
            kept.append(len(elements))
            return keep(elements)

        return recording_keep

    space.keeper = recording_keeper
    return scanned, kept


def _holds_any(system, low: int, high: int) -> bool:
    return any(store.has_any_in_range(low, high) for store in system.stores.values())


@pytest.mark.parametrize("curve", ["hilbert", "onion"])
def test_an_empty_window_is_not_scanned_but_stays_in_the_footprint(curve):
    system = _system(curve, result_cache=8)
    scanned, kept = _observe(system)
    text = "(*, 100-600)"
    origin = system.overlay.node_ids()[0]
    result = system.query(text, origin=origin)
    assert result.complete and not result.stats.result_cache_hit
    windows = list(result.scanned_ranges)
    empty = [w for w in windows if not _holds_any(system, *w)]
    assert empty, "the query should visit at least one empty window"
    # Only windows that hold an element reach the store scan, and the
    # post-filter never sees an empty candidate list.
    assert sorted(scanned) == sorted(w for w in windows if w not in empty)
    assert kept and 0 not in kept
    # A publish into an empty window that satisfies the query drops the
    # cached answer: the next run is a miss that sees the new element.
    assert system.query(text, origin=origin).stats.result_cache_hit
    curve_ = system.curve
    key = next(
        (word, float(size))
        for size in range(100, 601)
        for word in WORDS
        if any(
            low <= curve_.encode(system.space.point((word, float(size)))) <= high
            for low, high in empty
        )
    )
    system.publish(key, payload="late")
    again = system.query(text, origin=origin)
    assert not again.stats.result_cache_hit
    assert "late" in [element.payload for element in again.matches]
