"""CAN overlay network (Ratnasamy et al., SIGCOMM'01).

CAN partitions a d-dimensional coordinate space into rectangular *zones*, one
owner per zone; messages are routed greedily through zone neighbors (zones
sharing a (d-1)-face).  The paper uses Chord, but both a related-work
system it discusses (Andrzejak & Xu's inverse-SFC range system, reference
[1]) and its future-work "other topologies" direction are CAN-based, so we
implement CAN as a second overlay; ``examples/topologies.py`` compares its
routing against Chord's.

To present the same :class:`~repro.overlay.base.Overlay` interface as Chord
(keys from the 1-d index space ``[0, 2**bits)``), a key is placed at the zone
containing its *inverse-Hilbert* image — exactly the mapping of reference
[1].  Routing fidelity: :meth:`route` only uses zone-local neighbor state;
:meth:`owner` is the bookkeeping oracle.

Simplifications (documented, benign for message/node counting):

* the space is not a torus (greedy routing still converges because zones
  tile the space and per-hop distance strictly decreases);
* on departure a neighbor takes over the zone, so nodes may own several
  zones (real CAN does the same until background zone-merge runs).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import (
    DuplicateNodeError,
    EmptyOverlayError,
    NodeNotFoundError,
    OverlayError,
)
from repro.overlay.base import Overlay, RouteResult
from repro.sfc.hilbert import HilbertCurve
from repro.util.rng import RandomLike, as_generator

__all__ = ["Zone", "CanOverlay"]


@dataclass(frozen=True)
class Zone:
    """A rectangular zone: inclusive per-dimension grid bounds."""

    lows: tuple[int, ...]
    highs: tuple[int, ...]

    def contains(self, point: tuple[int, ...]) -> bool:
        return all(lo <= p <= hi for lo, p, hi in zip(self.lows, point, self.highs))

    def volume(self) -> int:
        vol = 1
        for lo, hi in zip(self.lows, self.highs):
            vol *= hi - lo + 1
        return vol

    def distance_to(self, point: tuple[int, ...]) -> int:
        """L1 distance from the zone (as a set) to ``point``."""
        dist = 0
        for lo, hi, p in zip(self.lows, self.highs, point):
            if p < lo:
                dist += lo - p
            elif p > hi:
                dist += p - hi
        return dist

    def touches(self, other: "Zone") -> bool:
        """True if the zones share a (d-1)-dimensional face."""
        face_dims = 0
        for lo1, hi1, lo2, hi2 in zip(self.lows, self.highs, other.lows, other.highs):
            if hi1 + 1 == lo2 or hi2 + 1 == lo1:
                face_dims += 1
            elif hi1 < lo2 or hi2 < lo1:
                return False  # separated along this axis: no contact at all
        return face_dims == 1

    def split(self, dim: int) -> tuple["Zone", "Zone"]:
        """Halve the zone along ``dim``; returns (lower, upper)."""
        lo, hi = self.lows[dim], self.highs[dim]
        if hi <= lo:
            raise OverlayError(f"zone too thin to split along dimension {dim}")
        mid = (lo + hi) // 2
        lower = Zone(
            self.lows, tuple(mid if i == dim else h for i, h in enumerate(self.highs))
        )
        upper = Zone(
            tuple(mid + 1 if i == dim else l for i, l in enumerate(self.lows)),
            self.highs,
        )
        return lower, upper


class CanOverlay(Overlay):
    """A simulated CAN over the 1-d key space ``[0, 2**bits)``.

    ``can_dims`` is CAN's own dimensionality (2 in the classic deployment);
    ``bits`` must be divisible by it so the inverse-Hilbert image of the key
    space exactly fills the zone grid.
    """

    def __init__(self, bits: int, can_dims: int = 2) -> None:
        super().__init__(bits)
        if can_dims < 1:
            raise OverlayError(f"can_dims must be >= 1, got {can_dims}")
        if bits % can_dims != 0:
            raise OverlayError(f"bits ({bits}) must be divisible by can_dims ({can_dims})")
        self.can_dims = can_dims
        self.resolution = bits // can_dims
        self.curve = HilbertCurve(can_dims, self.resolution)
        self.zones: dict[int, list[Zone]] = {}
        self._next_id = 0
        self._neighbor_cache: dict[int, list[int]] | None = None

    # ------------------------------------------------------------------
    # Key geometry
    # ------------------------------------------------------------------
    def key_point(self, key: int) -> tuple[int, ...]:
        """Inverse-Hilbert image of a 1-d key in the CAN coordinate space."""
        return self.curve.decode(key % self.space)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def bootstrap(self) -> int:
        """Create the first node owning the whole space; returns its id."""
        if self.zones:
            raise DuplicateNodeError("overlay already bootstrapped")
        side = 1 << self.resolution
        zone = Zone((0,) * self.can_dims, (side - 1,) * self.can_dims)
        node_id = self._allocate_id()
        self.zones[node_id] = [zone]
        self._invalidate()
        return node_id

    def join(self, rng: RandomLike = None) -> int:
        """Join at a uniformly random point (the CAN join protocol)."""
        gen = as_generator(rng)
        point = tuple(
            int(gen.integers(0, 1 << self.resolution)) for _ in range(self.can_dims)
        )
        return self.join_at_point(point)

    def join_cost(self, point: tuple[int, ...], entry: int | None = None) -> int:
        """Messages a join at ``point`` would cost from ``entry``.

        The CAN protocol routes the join request to the target zone's owner
        (greedy hops), then the split notifies the new neighbor set — one
        message each."""
        if not self.zones:
            return 1
        if entry is None:
            entry = self.node_ids()[0]
        route = self.route_to_point(entry, point)
        owner_id = route.destination
        return route.hops + 1 + len(self.neighbors(owner_id))

    def join_at_point(self, point: tuple[int, ...]) -> int:
        """Split the zone containing ``point``; the new node takes the upper half."""
        if not self.zones:
            return self.bootstrap()
        owner_id, zone = self._zone_containing(point)
        dim = max(
            range(self.can_dims), key=lambda d: zone.highs[d] - zone.lows[d]
        )
        if zone.highs[dim] <= zone.lows[dim]:
            raise OverlayError("target zone cannot be split further")
        lower, upper = zone.split(dim)
        new_id = self._allocate_id()
        self.zones[owner_id] = [z for z in self.zones[owner_id] if z != zone] + [lower]
        self.zones[new_id] = [upper]
        self._invalidate()
        return new_id

    def leave(self, node_id: int) -> None:
        """Graceful departure: a face-adjacent neighbor takes over the zones."""
        self._require(node_id)
        departing = self.zones.pop(node_id)
        self._invalidate()
        if not self.zones:
            return
        for zone in departing:
            candidates = [
                nid
                for nid, zlist in self.zones.items()
                if any(z.touches(zone) for z in zlist)
            ]
            if not candidates:  # pragma: no cover - disconnected space
                candidates = list(self.zones)
            takeover = min(
                candidates, key=lambda nid: sum(z.volume() for z in self.zones[nid])
            )
            self.zones[takeover].append(zone)
        self._invalidate()

    # ------------------------------------------------------------------
    # Overlay interface
    # ------------------------------------------------------------------
    def node_ids(self) -> list[int]:
        return sorted(self.zones)

    def owner(self, key: int) -> int:
        return self.owner_of_point(self.key_point(key))

    def owner_of_point(self, point: tuple[int, ...]) -> int:
        node_id, _ = self._zone_containing(point)
        return node_id

    def route(self, source: int, key: int) -> RouteResult:
        return self.route_to_point(source, self.key_point(key), key=key)

    def route_to_point(
        self, source: int, point: tuple[int, ...], key: int | None = None
    ) -> RouteResult:
        """Greedy neighbor routing toward the zone containing ``point``."""
        self._require(source)
        path = [source]
        current = source
        # Greedy distance strictly decreases, so no zone is visited twice.
        max_hops = sum(len(zlist) for zlist in self.zones.values()) + 2
        while not any(z.contains(point) for z in self.zones[current]):
            neighbors = self.neighbors(current)
            if not neighbors:  # pragma: no cover - single node owns all
                raise OverlayError("no neighbors to route through")
            best = min(
                neighbors,
                key=lambda nid: min(z.distance_to(point) for z in self.zones[nid]),
            )
            best_dist = min(z.distance_to(point) for z in self.zones[best])
            here_dist = min(z.distance_to(point) for z in self.zones[current])
            if best_dist >= here_dist and best_dist > 0:
                raise OverlayError("greedy routing stuck (should not happen)")
            path.append(best)
            current = best
            if len(path) > max_hops:  # pragma: no cover - defensive
                raise OverlayError("routing loop in CAN")
        return RouteResult(key=key if key is not None else -1, path=tuple(path))

    # ------------------------------------------------------------------
    # Neighborhood
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int) -> list[int]:
        """Node ids whose zones share a face with any of this node's zones."""
        self._require(node_id)
        if self._neighbor_cache is None:
            self._rebuild_neighbors()
        assert self._neighbor_cache is not None
        return self._neighbor_cache[node_id]

    def _rebuild_neighbors(self) -> None:
        cache: dict[int, list[int]] = {nid: [] for nid in self.zones}
        ids = list(self.zones)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if any(
                    za.touches(zb) for za in self.zones[a] for zb in self.zones[b]
                ):
                    cache[a].append(b)
                    cache[b].append(a)
        self._neighbor_cache = cache

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def _invalidate(self) -> None:
        self._neighbor_cache = None

    def _require(self, node_id: int) -> None:
        if node_id not in self.zones:
            raise NodeNotFoundError(f"node {node_id} not in CAN overlay")

    def _zone_containing(self, point: tuple[int, ...]) -> tuple[int, Zone]:
        if not self.zones:
            raise EmptyOverlayError("CAN overlay has no nodes")
        for node_id, zlist in self.zones.items():
            for zone in zlist:
                if zone.contains(point):
                    return node_id, zone
        raise OverlayError(f"no zone contains point {point}")  # pragma: no cover
