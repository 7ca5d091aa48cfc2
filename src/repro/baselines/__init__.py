"""Comparison systems: flooding and the distributed inverted index."""

from repro.baselines.flooding import FloodingNetwork, FloodingStats
from repro.baselines.inverted import (
    InvertedIndexStats,
    InvertedIndexSystem,
    UnsupportedQueryError,
)

__all__ = [
    "FloodingNetwork",
    "FloodingStats",
    "InvertedIndexSystem",
    "InvertedIndexStats",
    "UnsupportedQueryError",
]
