"""Contract tests: every overlay family honors the same interface.

The query engine and baselines are written against
:class:`repro.overlay.base.Overlay`; this suite runs one identical battery
over Chord, PNS-Chord, Pastry, and CAN so a regression in any family's
owner/route agreement is caught in one place.
"""

import numpy as np
import pytest

from repro.overlay import (
    CanOverlay,
    ChordRing,
    LatencyModel,
    PastryOverlay,
    ProximityChordRing,
)

BITS = 14
N_NODES = 64


def make_chord():
    return ChordRing.with_random_ids(BITS, N_NODES, rng=1)


def make_pns():
    plain = ChordRing.with_random_ids(BITS, N_NODES, rng=2)
    ids = plain.node_ids()
    return ProximityChordRing.build_with_model(
        BITS, ids, model=LatencyModel.random(ids, rng=3)
    )


def make_pastry():
    return PastryOverlay.with_random_ids(BITS, N_NODES, digit_bits=2, rng=4)


def make_can():
    can = CanOverlay(BITS, can_dims=2)
    rng = np.random.default_rng(5)
    for _ in range(N_NODES):
        can.join(rng)
    return can


FAMILIES = {
    "chord": make_chord,
    "pns": make_pns,
    "pastry": make_pastry,
    "can": make_can,
}


@pytest.fixture(scope="module", params=sorted(FAMILIES), name="overlay")
def overlay_fixture(request):
    return FAMILIES[request.param]()


class TestOverlayContract:
    def test_node_ids_sorted_unique(self, overlay):
        ids = overlay.node_ids()
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert len(ids) == N_NODES

    def test_every_key_has_exactly_one_owner(self, overlay):
        rng = np.random.default_rng(10)
        ids = set(overlay.node_ids())
        for key in rng.integers(0, overlay.space, size=100):
            owner = overlay.owner(int(key))
            assert owner in ids

    def test_owner_is_deterministic(self, overlay):
        rng = np.random.default_rng(11)
        for key in rng.integers(0, overlay.space, size=50):
            assert overlay.owner(int(key)) == overlay.owner(int(key))

    def test_route_agrees_with_owner(self, overlay):
        rng = np.random.default_rng(12)
        ids = overlay.node_ids()
        for _ in range(120):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, overlay.space))
            result = overlay.route(source, key)
            assert result.destination == overlay.owner(key)
            assert result.path[0] == source
            assert result.hops == len(result.path) - 1

    def test_path_nodes_are_members(self, overlay):
        rng = np.random.default_rng(13)
        ids = overlay.node_ids()
        members = set(ids)
        for _ in range(40):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, overlay.space))
            assert set(overlay.route(source, key).path) <= members

    def test_route_to_owned_key_is_local(self, overlay):
        """Routing to a key a node owns must not leave that node."""
        ids = overlay.node_ids()
        for source in ids[:10]:
            # Find a key this node owns (its own id maps to itself for the
            # ring families; for CAN probe a few keys).
            rng = np.random.default_rng(source % 1000)
            for _ in range(50):
                key = int(rng.integers(0, overlay.space))
                if overlay.owner(key) == source:
                    assert overlay.route(source, key).path == (source,)
                    break

    def test_hops_bounded(self, overlay):
        rng = np.random.default_rng(14)
        ids = overlay.node_ids()
        worst = 0
        for _ in range(100):
            source = ids[rng.integers(0, len(ids))]
            key = int(rng.integers(0, overlay.space))
            worst = max(worst, overlay.route(source, key).hops)
        # Generous family-agnostic bound: even CAN's O(sqrt N) fits.
        assert worst <= 6 * int(np.sqrt(N_NODES)) + 4


class TestRoutingEconomics:
    """What tells the families apart: lookup hops over one identifier space."""

    @staticmethod
    def mean_hops(overlay, lookups, seed):
        rng = np.random.default_rng(seed)
        ids = overlay.node_ids()
        return np.mean(
            [
                overlay.route(
                    ids[rng.integers(0, len(ids))], int(rng.integers(0, overlay.space))
                ).hops
                for _ in range(lookups)
            ]
        )

    def test_pastry_beats_chord_beats_can(self):
        """O(log_16 N) < O(log_2 N) < O(sqrt N) at N = 256."""
        can = CanOverlay(16, can_dims=2)
        rng = np.random.default_rng(5)
        for _ in range(256):
            can.join(rng)
        chord = ChordRing.with_random_ids(16, 256, rng=3)
        pastry = PastryOverlay.with_random_ids(16, 256, rng=4)
        assert (
            self.mean_hops(pastry, 150, 6)
            < self.mean_hops(chord, 150, 6)
            < self.mean_hops(can, 150, 6)
        )

    def test_chord_hops_grow_with_log_n(self):
        """16x the nodes adds a constant number of hops, not a factor."""
        small, large = (
            self.mean_hops(ChordRing.with_random_ids(18, n, rng=2), 100, 3)
            for n in (64, 1024)
        )
        assert small < large < small + 4
