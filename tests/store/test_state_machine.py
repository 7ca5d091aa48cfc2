"""One store state machine: every registered backend against the reference model.

Hypothesis interleaves adds, bulk adds (onto empty and non-empty stores),
range pops, re-adds of what was popped (a key handoff arriving, an
``unpublish`` putting back what it kept), clears and snapshot round trips,
and after **every** step compares every backend with
``tests/store/reference.py`` — scans by identity and order, and every number
load balancing and replication read (``key_count``, ``key_count_at``,
``split_point_by_load``, ``indices``, ``has_any_in_range``).
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro import KeywordSpace, SquidSystem, WordDimension
from repro.store import REGISTRY, StoredElement, get_store
from tests.store.reference import ModelStore

SPACE = 32  # indices 0..31: collisions, adjacent runs and gaps are all common
indices = st.integers(0, SPACE - 1)
placements = st.tuples(indices, st.integers(0, 3))  # (index, key id)
# Overlapping, unsorted, adjacent, duplicated and invalid (low > high) ranges.
probes = st.lists(st.tuples(indices, indices), max_size=5)
bounds = st.tuples(indices, indices).map(sorted)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.model = ModelStore()
        self.stores = {name: get_store(name) for name in sorted(REGISTRY)}
        self.popped: list[StoredElement] = []
        self.serial = 0

    def teardown(self) -> None:
        for store in self.stores.values():
            store.close()

    def everywhere(self, call):
        """Apply ``call`` to the model and every backend; return the results."""
        want = call(self.model)
        return want, {name: call(store) for name, store in self.stores.items()}

    def make(self, placement) -> StoredElement:
        index, kid = placement
        self.serial += 1
        return StoredElement(index=index, key=(f"k{kid}",), payload=self.serial)

    # -- steps ---------------------------------------------------------
    @rule(placement=placements, ranges=probes)
    def add(self, placement, ranges):
        element = self.make(placement)
        self.everywhere(lambda store: store.add(element))
        self.check(ranges)

    @rule(batch=st.lists(placements, max_size=8), onto_empty=st.booleans(), ranges=probes)
    def add_bulk(self, batch, onto_empty, ranges):
        if onto_empty:
            self.everywhere(lambda store: store.clear())
        elements = [self.make(placement) for placement in batch]
        self.everywhere(lambda store: store.add_sorted_bulk(list(elements)))
        self.check(ranges)

    @rule(span=bounds, ranges=probes)
    def pop_range(self, span, ranges):
        low, high = span
        want, got = self.everywhere(lambda store: store.pop_range(low, high))
        for name, moved in got.items():
            assert same_objects(moved, want), name
        self.popped = want
        self.check(ranges)

    @precondition(lambda self: self.popped)
    @rule(bulk=st.booleans(), ranges=probes)
    def add_popped_back(self, bulk, ranges):
        elements, self.popped = self.popped, []
        if bulk:
            self.everywhere(lambda store: store.add_sorted_bulk(list(elements)))
        else:
            self.everywhere(lambda store: [store.add(element) for element in elements])
        self.check(ranges)

    @rule(ranges=probes)
    def snapshot_restore(self, ranges):
        for name, store in self.stores.items():
            snapshot = store.snapshot()
            assert same_objects(snapshot, self.model.all_elements()), name
            store.clear()
            store.add_sorted_bulk(snapshot)
        self.check(ranges)

    @rule(ranges=probes)
    def clear(self, ranges):
        self.everywhere(lambda store: store.clear())
        self.check(ranges)

    # -- the comparison, after every step ------------------------------
    def check(self, ranges) -> None:
        model = self.model
        for name, store in self.stores.items():
            assert same_objects(store.scan_ranges(ranges), model.scan_ranges(ranges)), name
            assert same_objects(store.scan_ranges(iter(ranges)), model.scan_ranges(ranges)), name
            assert same_objects(store.all_elements(), model.all_elements()), name
            assert store.indices() == model.indices(), name
            assert store.key_count == model.key_count, name
            assert store.element_count == len(store) == model.element_count, name
            assert store.split_point_by_load() == model.split_point_by_load(), name
            for low, high in ranges:
                assert same_objects(store.scan_range(low, high), model.scan_ranges([(low, high)])), name
                assert store.has_any_in_range(low, high) == model.has_any_in_range(low, high), name
                assert store.key_count_at(low) == model.key_count_at(low), name


def same_objects(got, want) -> bool:
    got = list(got)
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestStoreMachine = StoreMachine.TestCase


def test_unpublish_leaves_the_colliding_key_in_place():
    """A bulk add onto a non-empty store re-inserts the batch and moves
    nothing else: ``unpublish`` of one of two keys colliding at an index
    leaves the other key's elements the same objects in the same order."""
    space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=2)
    for name in sorted(REGISTRY):
        system = SquidSystem.create(space, n_nodes=4, seed=1, store=name)
        stays, goes = ("ant", "bee"), ("ape", "bat")  # one cell at 2 bits per axis
        for n in range(3):
            system.publish(stays, payload=f"s{n}")
            system.publish(goes, payload=f"g{n}")
        system.publish(("zebra", "zoo"), payload="far")
        store = next(s for s in system.stores.values() if s.element_count >= 6)
        index = next(i for i in store.indices() if store.key_count_at(i) == 2)
        kept = [e for e in store.scan_range(index, index) if e.key == stays]
        others = [e for s in system.stores.values() for e in s.all_elements() if e.key != goes]
        keys_before = system.total_keys()

        assert system.unpublish(goes) == 3

        assert same_objects(store.scan_range(index, index), kept), name
        assert [e.payload for e in kept] == ["s0", "s1", "s2"]
        assert system.total_keys() == keys_before - 1, name
        after = [e for s in system.stores.values() for e in s.all_elements()]
        assert same_objects(after, others), name
