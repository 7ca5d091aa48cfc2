"""Successor-list replication — the paper's fault-tolerance future work.

The paper's §5 lists fault tolerance among the directions being extended;
the standard DHT answer (Chord/CFS, PAST) is to replicate each data element
at the ``degree`` ring successors of its primary node.  When a node crashes,
its immediate successor already holds replicas of everything the crashed
node stored, promotes them to primary, and the system re-establishes the
replication degree in the background.

:class:`ReplicationManager` wraps a live :class:`~repro.core.system.SquidSystem`
with exactly that protocol; ``examples``/tests exercise crash bursts and the
``degree``-adjacent-failures loss bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.system import SquidSystem
from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.store import NodeStore, StoredElement

__all__ = ["ReplicationManager"]


class ReplicationError(ReproError):
    """Replication protocol errors."""


@dataclass
class ReplicationStats:
    replicas_written: int = 0
    elements_recovered: int = 0
    elements_lost: int = 0
    messages: int = 0


class ReplicationManager:
    """Maintains ``degree`` successor replicas of every data element.

    Replicas live in per-node *replica stores*, separate from the primary
    stores the query engine scans — queries keep returning each element
    exactly once.  Replica stores are built from the system's
    :class:`~repro.store.base.StoreSpec`, so they use the same backend as
    the primaries (a SQLite system keeps SQLite replicas).  The invariant
    maintained (and checked by :meth:`verify_degree`):

        every element is stored at its primary (the successor of its index)
        and replicated at the next ``degree`` distinct ring successors.
    """

    def __init__(self, system: SquidSystem, degree: int = 2) -> None:
        if degree < 1:
            raise ReplicationError(f"degree must be >= 1, got {degree}")
        self.system = system
        self.degree = degree
        # node_id=None: replica stores get process-unique labels so they
        # never collide with the holder's primary store in a shared
        # resource (e.g. a shared SQLite file's node column).
        self.replicas: dict[int, NodeStore] = {
            node_id: system.store_spec.create() for node_id in system.overlay.node_ids()
        }
        self.stats = ReplicationStats()
        self._replicate_existing()

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _replica_holders(self, primary: int) -> list[int]:
        """The ``degree`` distinct successors of ``primary`` (fewer on tiny rings)."""
        overlay = self.system.overlay
        holders = []
        current = primary
        for _ in range(self.degree):
            current = overlay.successor_id(current)
            if current == primary or current in holders:
                break
            holders.append(current)
        return holders

    def _replicate_existing(self) -> None:
        for node_id, store in self.system.stores.items():
            for element in store.all_elements():
                self._write_replicas(node_id, element)

    def _replica_store(self, holder: int) -> NodeStore:
        """The replica store of ``holder``, created on demand.

        Nodes can join the overlay after this manager was constructed (e.g.
        directly through ``SquidSystem.add_node`` or the churn simulator);
        their stores must spring into existence on first write rather than
        silently dropping — or crashing on — the replica.
        """
        store = self.replicas.get(holder)
        if store is None:
            store = self.replicas[holder] = self.system.store_spec.create()
        return store

    def _write_replicas(self, primary: int, element: StoredElement) -> None:
        holders = self._replica_holders(primary)
        for holder in holders:
            self._replica_store(holder).add(element)
            self.stats.replicas_written += 1
            self.stats.messages += 1
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("replication.replicas_written").inc(len(holders))

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def publish(self, key: Sequence[Any], payload: Any = None) -> StoredElement:
        """Publish through the system and replicate synchronously."""
        element = self.system.publish(key, payload=payload)
        primary = self.system.overlay.owner(element.index)
        self._write_replicas(primary, element)
        return element

    # ------------------------------------------------------------------
    # Membership events
    # ------------------------------------------------------------------
    def add_node(self, node_id: int) -> None:
        """Join a node and rebuild affected replica placement."""
        self.system.add_node(node_id)
        self.replicas[node_id] = self.system.store_spec.create()
        self.repair()

    def crash(self, node_id: int) -> int:
        """Crash a node; recover its primaries from replicas.

        Returns the number of elements recovered.  Elements are lost only if
        the crashed node *and* all its replica holders failed earlier
        without repair — the classic ``degree+1`` adjacent-failure bound.
        """
        overlay = self.system.overlay
        if node_id not in overlay.nodes:
            raise ReplicationError(f"node {node_id} is not alive")
        lost_primaries = list(self.system.stores[node_id].all_elements())
        # Segments the victim owned, computed while the ring still knows it:
        # cached query results overlapping them are invalidated below (even
        # full replica recovery re-homes the elements, and recovery may be
        # partial).
        lost_segments = self.system._owned_segments(node_id)
        pred_id = overlay.predecessor_id(node_id)
        succ_id = overlay.successor_id(node_id)
        overlay.fail(node_id)
        # Promotion presupposes failure detection: the neighbors that notice
        # the crash splice their ring pointers (the rest of the state heals
        # via stabilization).
        if succ_id != node_id and succ_id in overlay.nodes:
            overlay.nodes[succ_id].predecessor = (
                pred_id if pred_id != node_id else succ_id
            )
        if pred_id != node_id and pred_id in overlay.nodes:
            overlay.nodes[pred_id].successor = (
                succ_id if succ_id != node_id else pred_id
            )
        self.system._drop_store(node_id)
        self.system._invalidate_segments(lost_segments)
        crashed_replicas = self.replicas.pop(node_id)

        recovered = 0
        for element in lost_primaries:
            new_primary = overlay.owner(element.index)
            replica_store = self.replicas.get(new_primary)
            if replica_store is not None and _holds(replica_store, element):
                # Promote the successor's replica to primary.
                self.system.stores[new_primary].add(element)
                recovered += 1
                self.stats.elements_recovered += 1
                self.stats.messages += 1
            else:
                self.stats.elements_lost += 1
        # Replicas the crashed node held for others are re-established lazily
        # by repair(); replicas promoted above must not be double-counted.
        self._drop_promoted(lost_primaries)
        del crashed_replicas
        reg = obs_metrics.active()
        if reg is not None:
            reg.counter("replication.crashes").inc()
            reg.counter("replication.elements_recovered").inc(recovered)
            reg.counter("replication.elements_lost").inc(
                len(lost_primaries) - recovered
            )
        return recovered

    def _drop_promoted(self, elements: list[StoredElement]) -> None:
        overlay = self.system.overlay
        for element in elements:
            new_primary = overlay.owner(element.index)
            store = self.replicas.get(new_primary)
            if store is None:
                continue
            for moved in store.pop_range(element.index, element.index):
                if moved.key != element.key or moved.payload != element.payload:
                    store.add(moved)  # different element at same index: keep

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def repair_around(self, successor_of_crashed: int) -> int:
        """Incremental repair after one crash (what a real deployment runs).

        Only the crashed node's neighborhood changed: the ``degree``
        predecessors lost one replica holder, and the successor now owns the
        promoted elements.  Re-establish replicas for exactly those
        primaries; returns copies written.  (The full :meth:`repair` remains
        available as the from-scratch reference.)
        """
        overlay = self.system.overlay
        if successor_of_crashed not in overlay.nodes:
            raise ReplicationError(f"{successor_of_crashed} is not a live node")
        affected = {successor_of_crashed}
        current = successor_of_crashed
        for _ in range(self.degree):
            current = overlay.predecessor_id(current)
            affected.add(current)
        written = 0
        for node_id in affected:
            store = self.system.stores.get(node_id)
            if store is None:  # pragma: no cover - defensive
                continue
            holders = self._replica_holders(node_id)
            for element in store.all_elements():
                for holder in holders:
                    holder_store = self._replica_store(holder)
                    if not _holds(holder_store, element):
                        holder_store.add(element)
                        written += 1
        self.stats.messages += written
        return written

    def repair(self) -> int:
        """Re-establish the replication invariant from the primaries.

        Idempotent; returns the number of replica copies (re)written.  A
        real deployment runs this incrementally from stabilization; the
        simulator recomputes the placement, which is equivalent.
        """
        desired: dict[int, list[StoredElement]] = {
            nid: [] for nid in self.system.overlay.node_ids()
        }
        for node_id, store in self.system.stores.items():
            for element in store.all_elements():
                for holder in self._replica_holders(node_id):
                    desired[holder].append(element)
        written = 0
        fresh: dict[int, NodeStore] = {}
        for node_id, elements in desired.items():
            store = self.system.store_spec.create()
            store.add_sorted_bulk(elements)
            fresh[node_id] = store
            written += len(elements)
        retired, self.replicas = self.replicas, fresh
        for store in retired.values():
            store.close()
        self.stats.messages += written
        return written

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def verify_degree(self) -> bool:
        """True when every primary element has all its replicas in place."""
        for node_id, store in self.system.stores.items():
            holders = self._replica_holders(node_id)
            for element in store.all_elements():
                for holder in holders:
                    holder_store = self.replicas.get(holder)
                    if holder_store is None or not _holds(holder_store, element):
                        return False
        return True

    def replica_count(self) -> int:
        return sum(store.element_count for store in self.replicas.values())


def _holds(store: NodeStore, element: StoredElement) -> bool:
    for candidate in store.scan_range(element.index, element.index):
        if candidate.key == element.key and candidate.payload == element.payload:
            return True
    return False
