"""Proximity-aware overlay — the paper's geographic-locality future work.

The paper's §5 lists "maintenance of geographical locality in the overlay
network" among its extensions.  The established DHT technique is *proximity
neighbor selection* (PNS, from the Chord/Pastry literature): Chord's
``finger[i]`` may correctly be **any** node in the identifier interval
``[n + 2^i, n + 2^(i+1))`` — routing stays O(log N) hops — so each node
picks the *lowest-latency* candidate in that interval instead of the first.

This module provides

* :class:`LatencyModel` — peers embedded in a Euclidean plane (the standard
  network-coordinates abstraction); message latency = distance;
* :class:`ProximityChordRing` — a Chord ring whose fingers are chosen by
  PNS against a latency model, plus per-path latency accounting.

``tests/overlay/test_proximity.py`` and the ``extC`` experiment show PNS
cutting per-lookup latency substantially at comparable hop counts.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.errors import NodeNotFoundError, OverlayError
from repro.overlay.chord import ChordRing
from repro.util.rng import RandomLike, as_generator

__all__ = ["LatencyModel", "ProximityChordRing"]


@dataclass
class LatencyModel:
    """Peers at 2-D plane coordinates; latency between peers = distance.

    ``scale`` sets the plane's side length (think milliseconds across a
    continent).  Unknown nodes raise — the model must cover the ring.
    """

    coordinates: dict[int, tuple[float, float]]
    scale: float = 100.0

    @classmethod
    def random(
        cls, node_ids: list[int], scale: float = 100.0, rng: RandomLike = None
    ) -> "LatencyModel":
        gen = as_generator(rng)
        coords = {
            node_id: (float(gen.uniform(0, scale)), float(gen.uniform(0, scale)))
            for node_id in node_ids
        }
        return cls(coordinates=coords, scale=scale)

    def add_node(self, node_id: int, rng: RandomLike = None) -> None:
        gen = as_generator(rng)
        self.coordinates[node_id] = (
            float(gen.uniform(0, self.scale)),
            float(gen.uniform(0, self.scale)),
        )

    def latency(self, a: int, b: int) -> float:
        try:
            xa, ya = self.coordinates[a]
            xb, yb = self.coordinates[b]
        except KeyError as exc:
            raise NodeNotFoundError(f"no coordinates for node {exc}") from None
        return float(np.hypot(xa - xb, ya - yb))

    def path_latency(self, path: tuple[int, ...]) -> float:
        return sum(self.latency(a, b) for a, b in zip(path, path[1:]))


class ProximityChordRing(ChordRing):
    """Chord with proximity neighbor selection.

    ``finger[i]`` is chosen among up to ``candidates`` nodes of the valid
    interval ``[n + 2^i, n + 2^(i+1))`` by lowest latency to ``n``;
    correctness is untouched because every candidate "succeeds n by at
    least 2^i" (the paper's §3.2 finger definition).
    """

    def __init__(self, bits: int, model: LatencyModel, candidates: int = 8) -> None:
        super().__init__(bits)
        if candidates < 1:
            raise OverlayError(f"candidates must be >= 1, got {candidates}")
        self.model = model
        self.candidates = candidates

    @classmethod
    def build_with_model(
        cls,
        bits: int,
        ids: list[int],
        model: LatencyModel | None = None,
        candidates: int = 8,
        rng: RandomLike = None,
    ) -> "ProximityChordRing":
        unique = sorted({int(i) for i in ids})
        if model is None:
            model = LatencyModel.random(unique, rng=rng)
        ring = cls(bits, model, candidates=candidates)
        from repro.overlay.chord import ChordNode

        for node_id in unique:
            if not 0 <= node_id < ring.space:
                raise OverlayError(f"identifier {node_id} outside [0, {ring.space})")
            ring.nodes[node_id] = ChordNode(node_id, bits)
        ring._sorted_ids = unique
        for node in ring.nodes.values():
            ring._refresh_node_state(node)
        return ring

    # ------------------------------------------------------------------
    # PNS finger selection
    # ------------------------------------------------------------------
    def _finger_interval_ids(self, node_id: int, level: int) -> list[int]:
        """Live node ids in ``[node_id + 2^level, node_id + 2^(level+1))``."""
        low = (node_id + (1 << level)) % self.space
        high = (node_id + (1 << (level + 1))) % self.space
        out: list[int] = []
        if low < high:
            pos = bisect_left(self._sorted_ids, low)
            while pos < len(self._sorted_ids) and self._sorted_ids[pos] < high:
                out.append(self._sorted_ids[pos])
                pos += 1
        else:  # wrapped interval
            pos = bisect_left(self._sorted_ids, low)
            out.extend(self._sorted_ids[pos:])
            pos = 0
            while pos < len(self._sorted_ids) and self._sorted_ids[pos] < high:
                out.append(self._sorted_ids[pos])
                pos += 1
        return out

    def _refresh_node_state(self, node) -> None:
        node.successor = self.successor_id(node.id)
        node.predecessor = self.predecessor_id(node.id)
        for i in range(self.bits):
            interval = self._finger_interval_ids(node.id, i)
            if not interval:
                # Empty interval: fall back to the classic finger target.
                node.fingers[i] = self.owner((node.id + (1 << i)) % self.space)
                continue
            pool = interval[: self.candidates]
            node.fingers[i] = min(pool, key=lambda nid: self.model.latency(node.id, nid))

    # ------------------------------------------------------------------
    # Latency accounting
    # ------------------------------------------------------------------
