"""Squid — flexible information discovery in decentralized distributed systems.

A faithful, laptop-scale reproduction of Schmidt & Parashar (HPDC 2003):
a P2P discovery system supporting keyword, partial-keyword, wildcard and
range queries with guarantees, built from

* a Hilbert space-filling-curve index over a typed keyword space
  (:mod:`repro.sfc`, :mod:`repro.keywords`),
* a Chord overlay sharing the curve's index space (:mod:`repro.overlay`),
* a distributed query engine with recursive refinement, pruning and
  aggregation (:mod:`repro.core`),
* join-time and runtime load balancing (:mod:`repro.core.loadbalance`),
* baselines (flooding, inverted index) and the paper's
  full experiment suite (:mod:`repro.baselines`, :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import KeywordSpace, SquidSystem, WordDimension
>>> space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)
>>> system = SquidSystem.create(space, n_nodes=16, seed=7)
>>> _ = system.publish(("computer", "network"), payload="doc-1")
>>> system.query("(comp*, *)").matches[0].payload
'doc-1'
"""

from repro.core.engine import NaiveEngine, OptimizedEngine, QueryEngine, make_engine
from repro.core.loadbalance import (
    VirtualNodeManager,
    grow_with_join_lb,
    neighbor_balance_round,
    run_neighbor_balancing,
)
from repro.core.metrics import HotspotMonitor, QueryResult, QueryStats
from repro.core.replication import ReplicationManager
from repro.core.resultcache import ResultCache
from repro.core.system import SquidSystem
from repro.keywords import (
    CategoricalDimension,
    Exact,
    KeywordSpace,
    NumericDimension,
    NumericRange,
    Prefix,
    Query,
    Wildcard,
    WordDimension,
    parse_terms,
)
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from repro.obs import (
    MetricsRegistry,
    PhaseProfiler,
    QueryTrace,
    Tracer,
    collecting,
    get_registry,
    profiling,
    set_registry,
)
from repro.overlay import CanOverlay, ChordRing, LatencyModel, ProximityChordRing
from repro.sfc import GrayCurve, HilbertCurve, MortonCurve, make_curve
from repro.store import (
    LocalStore,
    NodeStore,
    SQLiteStore,
    StoredElement,
    StoreSpec,
    get_store,
)

__version__ = "1.0.0"

__all__ = [
    "SquidSystem",
    "QueryEngine",
    "OptimizedEngine",
    "NaiveEngine",
    "make_engine",
    "QueryResult",
    "QueryStats",
    "KeywordSpace",
    "WordDimension",
    "NumericDimension",
    "CategoricalDimension",
    "Query",
    "Wildcard",
    "Exact",
    "Prefix",
    "NumericRange",
    "parse_terms",
    "ChordRing",
    "CanOverlay",
    "LatencyModel",
    "ProximityChordRing",
    "HilbertCurve",
    "MortonCurve",
    "GrayCurve",
    "make_curve",
    "HotspotMonitor",
    "ResultCache",
    "LocalStore",
    "SQLiteStore",
    "NodeStore",
    "StoreSpec",
    "get_store",
    "StoredElement",
    "VirtualNodeManager",
    "ReplicationManager",
    "FaultConfig",
    "FaultPlane",
    "RetryPolicy",
    "grow_with_join_lb",
    "neighbor_balance_round",
    "run_neighbor_balancing",
    "Tracer",
    "QueryTrace",
    "MetricsRegistry",
    "PhaseProfiler",
    "collecting",
    "profiling",
    "get_registry",
    "set_registry",
    "__version__",
]
