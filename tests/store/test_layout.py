"""Layout guards for the data plane at rest — deterministic, no timing.

What the post-filter costs per candidate is set by what lies behind a stored
element: the element is one slotted object, and a keyword is one object
however many keys hold it.  Neither is visible in an answer, so these tests
pin it directly.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import string

import pytest

from repro import (
    CategoricalDimension,
    KeywordSpace,
    NumericDimension,
    SquidSystem,
    WordDimension,
)
from repro.core.replication import ReplicationManager
from repro.store import StoredElement


class TestStoredElement:
    def test_is_one_object(self):
        element = StoredElement(7, ("computer", "network"), payload={"doc": 1})
        assert not hasattr(element, "__dict__")
        assert StoredElement.__slots__ == ("index", "key", "payload")

    def test_round_trips_equal_and_hashable(self):
        element = StoredElement(7, ("computer", "network"), payload=("doc", 1))
        copies = [
            pickle.loads(pickle.dumps(element)),
            copy.copy(element),
            copy.deepcopy(element),
            dataclasses.replace(element),
        ]
        for other in copies:
            assert other == element and hash(other) == hash(element)
            assert (other.index, other.key, other.payload) == (7, element.key, ("doc", 1))
        assert dataclasses.replace(element, index=8) == StoredElement(
            8, element.key, ("doc", 1)
        )
        assert repr(element) == (
            "StoredElement(index=7, key=('computer', 'network'), payload=('doc', 1))"
        )

    def test_stays_immutable(self):
        element = StoredElement(7, ("computer",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            element.index = 8
        with pytest.raises(dataclasses.FrozenInstanceError):
            del element.payload
        with pytest.raises((AttributeError, TypeError)):
            element.extra = 1  # no __dict__ to put it in


# ----------------------------------------------------------------------
# One object per keyword, through every path that stores a key
# ----------------------------------------------------------------------
def _vocabulary(rng: random.Random, size: int = 50) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9))))
    return sorted(words)


def _any_case(rng: random.Random, word: str) -> str:
    return rng.choice([word, word.upper(), word.capitalize(), word.swapcase()])


def _assert_shared(system, vocabulary, replication=None):
    stores = list(system.stores.values())
    if replication is not None:
        stores += list(replication.replicas.values())
    words = [word for store in stores for e in store.all_elements() for word in e.key]
    assert set(words) == set(vocabulary)  # normalized, and every word in use
    if system.store_spec.name != "sqlite":
        # sqlite re-materialises rows it has evicted or popped from their
        # pickles, so it promises equal values, not shared ones.
        assert len({id(word) for word in words}) == len(vocabulary)


@pytest.mark.parametrize("backend", ["local", "sqlite"])
def test_a_keyword_is_stored_once(backend):
    rng = random.Random(22)
    vocabulary = _vocabulary(rng)
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=10)
    system = SquidSystem.create(space, n_nodes=16, seed=5, store=backend)

    def draw(n):
        # The first keys walk the vocabulary, so every word is in use.
        firsts = (vocabulary[i % len(vocabulary)] for i in range(n))
        return [
            (_any_case(rng, first), _any_case(rng, rng.choice(vocabulary)))
            for first in firsts
        ]

    system.publish_many(draw(500), payloads=range(500))
    for n, key in enumerate(draw(300)):
        system.publish(key, payload=500 + n)
    system.publish_many([(w,) for (w, _) in draw(100)], payloads=range(800, 900), pad=True)
    for n, (word, _) in enumerate(draw(100)):
        system.publish((word,), payload=900 + n, pad=True)
    assert sum(len(store) for store in system.stores.values()) == 1000
    _assert_shared(system, vocabulary)

    # Key hand-off: a join splits a store, a leave merges one into its successor.
    ids = system.overlay.node_ids()
    joined = (ids[3] + ids[4]) // 2
    system.add_node(joined)
    system.remove_node(ids[8])
    _assert_shared(system, vocabulary)

    # Replica stores hold the primaries' objects; a crash promotes them.
    replication = ReplicationManager(system, degree=2)
    replication.publish(draw(1)[0], payload=1000)
    replication.crash(system.overlay.node_ids()[5])
    replication.repair()
    assert sum(len(store) for store in system.stores.values()) == 1001
    _assert_shared(system, vocabulary, replication)


def test_validate_returns_the_canonical_object():
    word = WordDimension("kw")
    assert word.validate("Network") is word.validate("NETWORK")
    os_type = CategoricalDimension("os", ["linux", "bsd"])
    equal_not_same = "".join(["li", "nux"])
    assert equal_not_same is not os_type.categories[0]
    assert os_type.validate(equal_not_same) is os_type.categories[0]


def test_a_published_float_is_the_callers_object():
    """Bulk publish stores what ``validate`` returns, object for object: a
    float key value is the caller's own float, not a copy beside it."""
    space = KeywordSpace([NumericDimension("mem", 0, 1024), WordDimension("kw")], bits=8)
    system = SquidSystem.create(space, n_nodes=8, seed=3)
    keys = [(random.Random(i).uniform(0, 1024), "net") for i in range(200)]
    system.publish_many(keys, payloads=range(200))
    stored = {e.payload: e.key for s in system.stores.values() for e in s.all_elements()}
    assert all(stored[i][0] is key[0] for i, key in enumerate(keys))
