"""The Squid core: system assembly, query engines, metrics, load balancing."""

from repro.core.adversary import AdversarialEngine, run_attack_experiment
from repro.core.engine import NaiveEngine, OptimizedEngine, QueryEngine, make_engine
from repro.core.snapshot import load_system, save_system
from repro.core.loadbalance import (
    VirtualNodeManager,
    grow_with_join_lb,
    neighbor_balance_round,
    run_neighbor_balancing,
    sample_join_id,
)
from repro.core.metrics import HotspotMonitor, QueryResult, QueryStats
from repro.core.plancache import PlanCache, plan_key
from repro.core.replication import ReplicationManager
from repro.core.resultcache import ResultCache, result_key
from repro.core.system import SquidSystem

__all__ = [
    "SquidSystem",
    "QueryEngine",
    "OptimizedEngine",
    "NaiveEngine",
    "make_engine",
    "QueryResult",
    "QueryStats",
    "PlanCache",
    "plan_key",
    "ResultCache",
    "result_key",
    "sample_join_id",
    "grow_with_join_lb",
    "neighbor_balance_round",
    "run_neighbor_balancing",
    "VirtualNodeManager",
    "ReplicationManager",
    "AdversarialEngine",
    "run_attack_experiment",
    "HotspotMonitor",
    "save_system",
    "load_system",
]
