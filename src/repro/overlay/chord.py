"""Chord overlay network (Stoica et al., SIGCOMM'01), as used by the paper.

Node identifiers live on the ring ``[0, 2**bits)``; a key is stored at its
*successor* — the first node whose identifier is >= the key (mod ring).  Each
node keeps ``bits`` fingers, ``finger[i] = successor(n + 2**i)``, and routes
greedily through the closest preceding finger, giving O(log N) hops.

Fidelity notes
--------------
* :meth:`ChordRing.route` uses **only local finger/successor state**, so hop
  counts and paths match what a real deployment would produce.
* :meth:`ChordRing.owner` is the oracle shortcut (bisect over sorted ids) for
  bookkeeping that a real node would learn by routing; the engine always
  charges messages through :meth:`route`.
* Joins, graceful departures and crash failures are modelled, including
  stale fingers after a crash and the paper's periodic stabilization (§3.2
  "each node periodically ... chooses a random entry in its finger table,
  checks for its state, and updates it if required").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

import numpy as np

from repro.errors import (
    DuplicateNodeError,
    EmptyOverlayError,
    NodeNotFoundError,
    OverlayError,
)
from repro.obs import metrics as obs_metrics
from repro.overlay.base import (
    Overlay,
    RouteResult,
    ring_contains_open_closed,
    ring_contains_open_open,
)
from repro.util.rng import RandomLike, as_generator

__all__ = ["ChordNode", "ChordRing", "RouteCache"]

_MAX_ROUTE_HOPS_FACTOR = 4  # Safety net against routing loops on stale state.


class RouteCache:
    """Memo of greedy routes for the ring's *current* routing state.

    Entries map ``(source, owner)`` to the path :meth:`ChordRing.route`
    would walk from ``source`` to any key owned by ``owner``.  Keying on
    the owner (not the key) is exact: every routing decision — finger
    selection and both termination checks — tests the key only against
    *live node identifiers*, and the ownership interval ``(predecessor,
    owner]`` contains no live identifier below ``owner``; hence two keys
    with the same owner take the identical path from the same source.

    The cache is a pure simulator optimization: cached deliveries still
    report the same ``overlay.routes`` / ``overlay.route_hops`` metrics and
    the same :class:`RouteResult` paths, so the modelled protocol costs are
    unchanged.  Any mutation of routing state (join, leave, crash, rename,
    stabilization repair, finger rebuild) must :meth:`invalidate` the whole
    memo — the ring's membership methods do this; hit/miss/invalidation
    counts are published as ``overlay.route_cache.*``.
    """

    __slots__ = ("maxsize", "_paths")

    def __init__(self, maxsize: int = 262_144) -> None:
        self.maxsize = maxsize
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def get(self, source: int, owner: int) -> tuple[int, ...] | None:
        return self._paths.get((source, owner))

    def put(self, source: int, owner: int, path: tuple[int, ...]) -> None:
        if len(self._paths) >= self.maxsize:
            # Full: drop everything rather than track recency — refills are
            # cheap relative to the sweep workloads the cache serves.
            self._paths.clear()
            reg = obs_metrics.active()
            if reg is not None:
                reg.counter("overlay.route_cache.evictions").inc()
        self._paths[(source, owner)] = path

    def invalidate(self) -> None:
        if not self._paths:
            return
        self._paths.clear()
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("overlay.route_cache.invalidations").inc()

    def __len__(self) -> int:
        return len(self._paths)


class ChordNode:
    """Local state of one Chord peer: successor list, predecessor, fingers."""

    __slots__ = ("id", "successor", "predecessor", "fingers", "successor_list")

    #: Entries kept in the successor list (Chord's r parameter): routing
    #: survives up to r consecutive successor failures without repair.
    SUCCESSOR_LIST_SIZE = 4

    def __init__(self, node_id: int, bits: int) -> None:
        self.id = node_id
        self.successor = node_id
        self.predecessor = node_id
        # finger[i] targets successor(id + 2**i); initialised to self and
        # filled in by the ring on join/build.
        self.fingers: list[int] = [node_id] * bits
        # The next r nodes on the ring (fault-tolerant successor fallback).
        self.successor_list: list[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChordNode(id={self.id}, successor={self.successor})"


class ChordRing(Overlay):
    """A complete simulated Chord ring."""

    def __init__(self, bits: int) -> None:
        super().__init__(bits)
        self.nodes: dict[int, ChordNode] = {}
        self._sorted_ids: list[int] = []
        #: Per-ring route memo (see :class:`RouteCache`); set to ``None`` to
        #: disable caching entirely (every route re-walks the fingers).
        self.route_cache: RouteCache | None = RouteCache()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, bits: int, ids: list[int] | np.ndarray) -> "ChordRing":
        """Bulk-construct a ring with correct fingers for all ``ids``.

        This is the fast path for large experiments (the incremental
        :meth:`join` models protocol behaviour; ``build`` just materialises
        the converged state directly).
        """
        ring = cls(bits)
        unique = sorted({int(i) for i in ids})
        if len(unique) != len(ids):
            raise DuplicateNodeError("duplicate identifiers in bulk build")
        for node_id in unique:
            if not 0 <= node_id < ring.space:
                raise OverlayError(f"identifier {node_id} outside [0, {ring.space})")
            ring.nodes[node_id] = ChordNode(node_id, bits)
        ring._sorted_ids = unique
        for node in ring.nodes.values():
            ring._refresh_node_state(node)
        return ring

    @classmethod
    def with_random_ids(
        cls, bits: int, count: int, rng: RandomLike = None
    ) -> "ChordRing":
        """Ring of ``count`` nodes with uniformly random identifiers."""
        gen = as_generator(rng)
        ring = cls(bits)
        ids: set[int] = set()
        while len(ids) < count:
            need = count - len(ids)
            draw = gen.integers(0, ring.space, size=need, dtype=np.uint64)
            ids.update(int(x) for x in draw)
        return cls.build(bits, sorted(ids))

    # ------------------------------------------------------------------
    # Oracle lookups (no messages)
    # ------------------------------------------------------------------
    def node_ids(self) -> list[int]:
        """Sorted identifiers of all live nodes."""
        return list(self._sorted_ids)

    def owner(self, key: int) -> int:
        """Successor of ``key``: the node storing it."""
        if not self._sorted_ids:
            raise EmptyOverlayError("ring has no nodes")
        key %= self.space
        pos = bisect_left(self._sorted_ids, key)
        if pos == len(self._sorted_ids):
            return self._sorted_ids[0]
        return self._sorted_ids[pos]

    def owner_many(self, keys) -> np.ndarray:
        """Vectorized :meth:`owner`: one ``searchsorted`` over the ring.

        Falls back to the scalar loop when the identifier space exceeds
        int64 (curve geometries beyond 63 index bits).
        """
        if not self._sorted_ids:
            raise EmptyOverlayError("ring has no nodes")
        if self.space > 2**63:
            return super().owner_many(keys)
        arr = np.asarray(list(keys), dtype=np.int64) % self.space
        node_ids = np.asarray(self._sorted_ids, dtype=np.int64)
        positions = np.searchsorted(node_ids, arr)
        return node_ids[positions % len(node_ids)]

    def predecessor_id(self, node_id: int) -> int:
        """Identifier of the node preceding ``node_id`` on the ring."""
        self._require(node_id)
        pos = bisect_left(self._sorted_ids, node_id)
        return self._sorted_ids[pos - 1] if pos > 0 else self._sorted_ids[-1]

    def successor_id(self, node_id: int) -> int:
        """Identifier of the node following ``node_id`` on the ring."""
        self._require(node_id)
        pos = bisect_right(self._sorted_ids, node_id)
        return self._sorted_ids[pos % len(self._sorted_ids)]

    def owner_range(self, node_id: int) -> tuple[int, int]:
        """The ``(predecessor, node]`` key range owned by ``node_id``.

        Returned as the pair ``(predecessor_id, node_id)``; use ring-interval
        membership to test keys against it.
        """
        return self.predecessor_id(node_id), node_id

    # ------------------------------------------------------------------
    # Routing (messages)
    # ------------------------------------------------------------------
    def route(self, source: int, key: int) -> RouteResult:
        """Greedy finger routing from ``source`` to ``successor(key)``.

        Dead fingers (crashed, not yet repaired) are skipped the way a live
        protocol would time them out; the safety cap aborts pathological
        loops that could only arise from heavily corrupted state.

        Repeated routes between the same (source, owner interval) pair are
        served from :attr:`route_cache` when one is attached: the memoized
        path is identical to a fresh walk (see :class:`RouteCache`), and the
        reported route metrics are unchanged — only the walk's CPU cost is
        skipped.
        """
        self._require(source)
        key %= self.space
        cache = self.route_cache
        owner = -1
        if cache is not None:
            owner = self.owner(key)
            cached = cache.get(source, owner)
            reg = obs_metrics.active()
            if cached is not None:
                if reg is not None:
                    reg.counter("overlay.route_cache.hits").inc()
                return self._route_done(key, cached)
            if reg is not None:
                reg.counter("overlay.route_cache.misses").inc()
        path = self._walk_route(source, key)
        if cache is not None:
            cache.put(source, owner, tuple(path))
        return self._route_done(key, path)

    def _walk_route(self, source: int, key: int) -> list[int]:
        """The uncached greedy finger walk; returns the hop-by-hop path."""
        path = [source]
        current = self.nodes[source]
        max_hops = _MAX_ROUTE_HOPS_FACTOR * max(self.bits, len(self._sorted_ids).bit_length() + 1)
        while True:
            # The current node may itself own the key (always possible at the
            # query initiator; with stale state also mid-route).
            if current.predecessor in self.nodes and ring_contains_open_closed(
                key, current.predecessor, current.id, self.space
            ):
                return path
            succ = self._live_successor(current)
            if ring_contains_open_closed(key, current.id, succ, self.space):
                if succ != path[-1]:
                    path.append(succ)
                return path
            nxt = self._closest_preceding_live_finger(current, key)
            if nxt == current.id:
                # All fingers useless/stale: fall back to the successor link.
                nxt = succ
            if len(path) > max_hops:
                raise OverlayError(
                    f"routing loop detected from {source} toward {key}"
                )
            path.append(nxt)
            current = self.nodes[nxt]

    @staticmethod
    def _route_done(key: int, path: list[int] | tuple[int, ...]) -> RouteResult:
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("overlay.routes").inc()
            reg.histogram("overlay.route_hops").observe(len(path) - 1)
        return RouteResult(key=key, path=tuple(path))

    def _live_successor(self, node: ChordNode) -> int:
        if node.successor in self.nodes:
            return node.successor
        # Successor-list fallback (Chord's fault-tolerance mechanism): the
        # first live entry takes over.
        for backup in node.successor_list:
            if backup in self.nodes:
                return backup
        # All r backups dead without repair — beyond the protocol's failure
        # tolerance; fall back to the oracle (a real node would re-bootstrap).
        succ = (node.successor + 1) % self.space
        return self.owner(succ)

    def _closest_preceding_live_finger(self, node: ChordNode, key: int) -> int:
        for finger in reversed(node.fingers):
            if finger in self.nodes and ring_contains_open_open(
                finger, node.id, key, self.space
            ):
                return finger
        return node.id

    # ------------------------------------------------------------------
    # Membership changes
    # ------------------------------------------------------------------
    def join(self, node_id: int) -> int:
        """Insert a node; returns the (modelled) message cost O(log N).

        The joining node routes to its successor, splices in, and builds its
        finger table; affected fingers of existing nodes are repaired, as the
        Chord join protocol would do.
        """
        node_id %= self.space
        if node_id in self.nodes:
            raise DuplicateNodeError(f"node {node_id} already in ring")
        cost = 0
        if self._sorted_ids:
            # Route the join message to the future successor.
            start = self._sorted_ids[0]
            cost += self.route(start, node_id).hops
        node = ChordNode(node_id, self.bits)
        self.nodes[node_id] = node
        insort(self._sorted_ids, node_id)
        self._refresh_node_state(node)
        cost += self._repair_after_insert(node_id)
        self._invalidate_routes()
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("overlay.joins").inc()
        return max(cost, 1)

    def leave(self, node_id: int) -> int:
        """Graceful departure: neighbors and finger holders are notified."""
        self._require(node_id)
        cost = self._repair_before_remove(node_id)
        del self.nodes[node_id]
        self._sorted_ids.remove(node_id)
        self._invalidate_routes()
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("overlay.leaves").inc()
        if not self._sorted_ids:
            return 1
        return max(cost, 1)

    def rename_node(self, old_id: int, new_id: int) -> int:
        """Move a node to a new identifier between its current neighbors.

        This is the runtime load-balancing primitive (paper §3.5): shifting a
        node's identifier shifts the ``(predecessor, id]`` boundary and hence
        which keys it stores.  The new identifier must stay strictly between
        the old predecessor and successor so ring order is unchanged.
        """
        self._require(old_id)
        new_id %= self.space
        if new_id == old_id:
            return 0
        if new_id in self.nodes:
            raise DuplicateNodeError(f"identifier {new_id} already taken")
        pred = self.predecessor_id(old_id)
        succ = self.successor_id(old_id)
        if len(self._sorted_ids) > 1 and not ring_contains_open_open(
            new_id, pred, succ, self.space
        ):
            raise OverlayError(
                f"new identifier {new_id} not between neighbors ({pred}, {succ})"
            )
        cost = self._repair_before_remove(old_id)
        node = self.nodes.pop(old_id)
        self._sorted_ids.remove(old_id)
        node.id = new_id
        self.nodes[new_id] = node
        insort(self._sorted_ids, new_id)
        self._refresh_node_state(node)
        cost += self._repair_after_insert(new_id)
        self._invalidate_routes()
        return max(cost, 1)

    def fail(self, node_id: int) -> None:
        """Crash failure: the node vanishes, everyone else's state goes stale."""
        self._require(node_id)
        del self.nodes[node_id]
        self._sorted_ids.remove(node_id)
        self._invalidate_routes()
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("overlay.failures").inc()

    # ------------------------------------------------------------------
    # Stabilization
    # ------------------------------------------------------------------
    def stabilize_node(self, node_id: int, rng: RandomLike = None) -> int:
        """One stabilization step at a node (paper §3.2, node failures).

        Fixes the successor/predecessor links and refreshes one random finger
        table entry; returns the message cost incurred.
        """
        self._require(node_id)
        gen = as_generator(rng)
        node = self.nodes[node_id]
        cost = 0
        true_succ = self.successor_id(node_id)
        if node.successor != true_succ:
            node.successor = true_succ
            cost += 1
        true_pred = self.predecessor_id(node_id)
        if node.predecessor != true_pred:
            node.predecessor = true_pred
            cost += 1
        i = int(gen.integers(0, self.bits))
        target = (node_id + (1 << i)) % self.space
        correct = self.owner(target)
        if node.fingers[i] != correct:
            node.fingers[i] = correct
            cost += max(len(self._sorted_ids).bit_length(), 1)
        # Refresh the successor list from the (now correct) successor — in
        # the protocol this is one exchange with the successor.
        pos = bisect_left(self._sorted_ids, node_id)
        n = len(self._sorted_ids)
        fresh = [
            self._sorted_ids[(pos + 1 + k) % n]
            for k in range(min(ChordNode.SUCCESSOR_LIST_SIZE, n - 1))
        ]
        if fresh != node.successor_list:
            node.successor_list = fresh
            cost += 1
        if cost:
            # Something was repaired: memoized routes may now take different
            # (possibly shorter) paths, so the memo is stale.
            self._invalidate_routes()
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("overlay.stabilizations").inc()
        return cost

    def stale_finger_fraction(self) -> float:
        """Fraction of finger entries pointing at wrong/dead nodes."""
        total = 0
        stale = 0
        for node in self.nodes.values():
            for i, finger in enumerate(node.fingers):
                total += 1
                target = (node.id + (1 << i)) % self.space
                if finger not in self.nodes or finger != self.owner(target):
                    stale += 1
        return stale / total if total else 0.0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require(self, node_id: int) -> None:
        if node_id not in self.nodes:
            raise NodeNotFoundError(f"node {node_id} not in ring")

    def _invalidate_routes(self) -> None:
        if self.route_cache is not None:
            self.route_cache.invalidate()

    def _refresh_node_state(self, node: ChordNode) -> None:
        node.successor = self.successor_id(node.id)
        node.predecessor = self.predecessor_id(node.id)
        self._refresh_successor_list(node)
        for i in range(self.bits):
            node.fingers[i] = self.owner((node.id + (1 << i)) % self.space)

    def _refresh_successor_list(self, node: ChordNode) -> None:
        pos = bisect_left(self._sorted_ids, node.id)
        n = len(self._sorted_ids)
        node.successor_list = [
            self._sorted_ids[(pos + 1 + k) % n]
            for k in range(min(ChordNode.SUCCESSOR_LIST_SIZE, n - 1))
        ]

    def _iter_ids_in_ring_interval(self, low: int, high: int):
        """Yield live node ids in the ring interval ``(low, high]``."""
        if not self._sorted_ids:
            return
        low %= self.space
        high %= self.space
        if low == high:
            yield from self._sorted_ids
            return
        if low < high:
            lo_pos = bisect_right(self._sorted_ids, low)
            hi_pos = bisect_right(self._sorted_ids, high)
            yield from self._sorted_ids[lo_pos:hi_pos]
        else:
            lo_pos = bisect_right(self._sorted_ids, low)
            yield from self._sorted_ids[lo_pos:]
            hi_pos = bisect_right(self._sorted_ids, high)
            yield from self._sorted_ids[:hi_pos]

    def _repair_after_insert(self, node_id: int) -> int:
        """After a join: fix exactly the finger entries now owned by ``node_id``.

        Node ``n``'s finger ``i`` targets ``n + 2**i``; its owner changed to
        the new node iff that target lies in the new node's key range
        ``(pred, node_id]``.  Those ``n`` form one contiguous ring interval
        per finger level, found by bisection — O(bits·log N + updates)
        instead of a full table sweep.
        """
        cost = 0
        pred = self.predecessor_id(node_id)
        succ = self.successor_id(node_id)
        self.nodes[pred].successor = node_id
        self.nodes[succ].predecessor = node_id
        cost += 2
        if pred == node_id:  # single node: nothing else to fix
            return cost
        for i in range(self.bits):
            step = 1 << i
            low = (pred - step) % self.space
            high = (node_id - step) % self.space
            for nid in self._iter_ids_in_ring_interval(low, high):
                node = self.nodes[nid]
                if node.fingers[i] != node_id:
                    node.fingers[i] = node_id
                    cost += 1
        return cost

    def _repair_before_remove(self, node_id: int) -> int:
        """Before departure: repoint finger entries from ``node_id`` to its
        successor (which inherits the key range)."""
        succ = self.successor_id(node_id)
        pred = self.predecessor_id(node_id)
        if succ == node_id:  # last node leaving
            return 1
        cost = 0
        self.nodes[pred].successor = succ
        self.nodes[succ].predecessor = pred
        cost += 2
        for i in range(self.bits):
            step = 1 << i
            low = (pred - step) % self.space
            high = (node_id - step) % self.space
            for nid in self._iter_ids_in_ring_interval(low, high):
                node = self.nodes[nid]
                if node.fingers[i] == node_id:
                    node.fingers[i] = succ
                    cost += 1
        return cost

    def rebuild_all_fingers(self) -> None:
        """Recompute every node's links from scratch (test/maintenance aid)."""
        for node in self.nodes.values():
            self._refresh_node_state(node)
        self._invalidate_routes()
