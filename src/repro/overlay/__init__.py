"""Structured overlay networks: Chord (primary) and CAN (the topology comparison)."""

from repro.overlay.base import (
    Overlay,
    RouteResult,
    ring_contains_open_closed,
    ring_contains_open_open,
)
from repro.overlay.can import CanOverlay, Zone
from repro.overlay.chord import ChordNode, ChordRing
from repro.overlay.proximity import LatencyModel, ProximityChordRing

__all__ = [
    "Overlay",
    "RouteResult",
    "ring_contains_open_closed",
    "ring_contains_open_open",
    "ChordNode",
    "ChordRing",
    "CanOverlay",
    "Zone",
    "LatencyModel",
    "ProximityChordRing",
]
