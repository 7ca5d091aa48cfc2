"""Golden fingerprints of both engines, recorded before the engine-core merge.

``engine_golden.json`` (beside this file) was generated by this module's
``__main__`` at commit ``f86bf2a`` — the parent of the PR that collapsed
``core/engine.py`` to one visit, one dispatcher and one run opener.  It was
regenerated once, at ``887412a``, to add ``zorder`` as a third curve of the
matrix; every ``hilbert/...`` and ``onion/...`` line came out byte-identical
to the ``f86bf2a`` recording.  Every case replays a fixed query sequence
on a freshly built, seeded system and fingerprints everything an engine
refactor could disturb without changing an answer *total*: the match sets,
``stats.as_dict()``, completeness and unresolved ranges, the **ordered**
trace tree (span creation order, per-span event order) and the fault
plane's final counters — which pin how much of the plane's RNG stream
resilient delivery consumed, and in which order.

The recording is of traced runs.  Each case also runs untraced, with the
run's counting sink alone: everything but the trace must reproduce the
same digests.  The whole matrix is replayed once more under another
``PYTHONHASHSEED``: a set or dict walked in hash order anywhere on an
engine path would move some case's digests.

The matrix is curve x engine configuration x scenario; scenarios that need
the optimized engine's constructor (latency model, fault plane, droppers)
are skipped for the naive one.  Components are stored as digests to keep
the file small; to see what moved, dump a case on both commits and diff::

    PYTHONPATH=src python -m tests.core.test_engine_golden hilbert/opt-agg-d1/faults-retry

Regenerate (only when behaviour is *meant* to change) with
``PYTHONPATH=src python -m tests.core.test_engine_golden --write <commit>``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import KeywordSpace, LatencyModel, SquidSystem, WordDimension
from repro.core.adversary import AdversarialEngine
from repro.core.engine import NaiveEngine, OptimizedEngine
from repro.core.replication import ReplicationManager
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from repro.guard import GuardConfig, GuardPlane
from tests.core.conftest import WORDS

GOLDEN = Path(__file__).with_name("engine_golden.json")

CURVES = ("hilbert", "onion", "zorder")
QUERIES = ("(computer, data)", "(comp*, *)", "(*, net*)", "(*, *)", "(d*, *)")
ENGINES = {
    "opt-agg-d1": (OptimizedEngine, dict(aggregate=True, local_depth=1)),
    "opt-agg-d2": (OptimizedEngine, dict(aggregate=True, local_depth=2)),
    "opt-noagg-d1": (OptimizedEngine, dict(aggregate=False, local_depth=1)),
    "opt-noagg-d2": (OptimizedEngine, dict(aggregate=False, local_depth=2)),
    "naive": (NaiveEngine, dict(max_level=None)),
    "naive-l4": (NaiveEngine, dict(max_level=4)),
}
#: scenario -> runs on the naive engine too?
SCENARIOS = {
    "plain": True,
    "timed": False,
    "faults-retry": False,
    "faults-noretry": False,
    "droppers-failover": False,
    "droppers-no-replicas": False,
    "guard-sheds": True,
    "hop-budget-3": True,
    "limit-2": True,
}
FAULTS = dict(
    drop_rate=0.2, crash_rate=0.04, duplicate_rate=0.1, delay_rate=0.2,
    slow_fraction=0.3, seed=5,
)
GUARD = dict(queue_high=1, queue_low=0, bucket_capacity=1, bucket_refill=0.0)


def case_ids() -> list[str]:
    return [
        f"{curve}/{engine}/{scenario}"
        for curve in CURVES
        for engine, (cls, _) in ENGINES.items()
        for scenario, naive_too in SCENARIOS.items()
        if naive_too or cls is OptimizedEngine
    ]


def _build_system(curve: str, traced: bool = True) -> SquidSystem:
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=8)
    system = SquidSystem.create(space, n_nodes=24, curve=curve, seed=31)
    rng = np.random.default_rng(12)
    keys = [("computer", "data"), ("compute", "network")] + [
        (WORDS[rng.integers(len(WORDS))], WORDS[rng.integers(len(WORDS))])
        for _ in range(148)
    ]
    system.publish_many(keys, payloads=list(range(len(keys))))
    if traced:
        system.attach_tracer()
    return system


def _build_engine(system, cls, kwargs, scenario):
    """``(engine, plane, execute_kwargs, rounds)`` for one scenario."""
    kwargs = dict(kwargs)
    plane = None
    execute: dict = {}
    rounds = 1
    if scenario in ("timed", "faults-retry", "faults-noretry"):
        kwargs["latency_model"] = LatencyModel.random(
            system.overlay.node_ids(), rng=13
        )
        kwargs["processing_delay"] = 0.5
    if scenario.startswith("faults"):
        manager = ReplicationManager(system, degree=2)
        plane = FaultPlane(FaultConfig(**FAULTS))
        plane.attach_system(system, replication=manager)
        kwargs.update(fault_plane=plane, replication=manager)
        if scenario == "faults-retry":
            kwargs["retry"] = RetryPolicy()
        rounds = 2  # the plane's RNG stream and its crashes carry over
    elif scenario.startswith("droppers"):
        manager = (
            ReplicationManager(system, degree=2)
            if scenario == "droppers-failover" else None
        )
        # ids[1] is the first query's origin: a dropper origin answers
        # nothing at all (AdversarialEngine's early result).
        droppers = set(system.overlay.node_ids()[1::5])
        engine = AdversarialEngine(
            droppers, retry=True, replication=manager, **kwargs
        )
        return engine, engine.fault_plane, execute, rounds
    elif scenario == "guard-sheds":
        kwargs["guard"] = GuardPlane(GuardConfig(**GUARD))
        execute["priority"] = "batch"
    elif scenario == "hop-budget-3":
        kwargs["hop_budget"] = 3
    elif scenario == "limit-2":
        execute["limit"] = 2
    return cls(**kwargs), plane, execute, rounds


def run_case(case: str, traced: bool = True) -> dict:
    """The full (undigested) fingerprint of one case."""
    curve, engine_name, scenario = case.split("/")
    cls, kwargs = ENGINES[engine_name]
    system = _build_system(curve, traced)
    engine, plane, execute, rounds = _build_engine(system, cls, kwargs, scenario)
    rng = np.random.default_rng(14)
    records = []
    for i, query in enumerate(QUERIES * rounds):
        ids = system.overlay.node_ids()  # re-read: the plane crashes nodes
        origin = ids[(i * 7 + 1) % len(ids)]
        result = engine.execute(system, query, origin=origin, rng=rng, **execute)
        records.append(
            {
                "matches": sorted(str(e.key) for e in result.matches),
                "stats": result.stats.as_dict(),
                "complete": result.complete,
                "unresolved": [list(r) for r in result.unresolved_ranges],
                "trace": result.trace.to_tree() if result.trace else None,
            }
        )
    components = {
        name: [record[name] for record in records]
        for name in ("matches", "stats", "complete", "unresolved", "trace")
    }
    components["plane"] = (
        dataclasses.asdict(plane.stats) if plane is not None else None
    )
    return components


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(case: str) -> dict:
    """What the JSON stores per case: one digest per component, plus a
    readable summary showing that the scenario actually bites."""
    components = run_case(case)
    stats = components["stats"]
    out = {name: _digest(value) for name, value in components.items()}
    out["summary"] = {
        "matches": [len(m) for m in components["matches"]],
        "messages": [s["messages"] for s in stats],
        "incomplete": components["complete"].count(False),
        "retries": sum(s["retries"] for s in stats),
        "failovers": sum(s["failovers"] for s in stats),
        "lost": sum(s["lost_branches"] for s in stats),
        "shed": sum(s["shed_branches"] for s in stats),
    }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())["cases"]


def test_matrix_is_the_recorded_one(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_fingerprint_matches_parent(case, golden):
    got = fingerprint(case)
    want = golden[case]
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"{case}: {moved} differ from the recorded run"
    # The untraced twin: the counting sink alone gives the same run.
    plain = run_case(case, traced=False)
    untraced = ("matches", "stats", "complete", "unresolved", "plane")
    moved = [name for name in untraced if _digest(plain[name]) != want[name]]
    assert not moved, f"{case}: untraced {moved} differ from the recorded run"


def test_golden_does_not_depend_on_the_hash_seed(golden):
    """Replay every case in one fresh interpreter under a hash seed other
    than the suite's own and compare every digest."""
    root = GOLDEN.resolve().parents[2]
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    code = (
        "import json, sys\n"
        "from tests.core.test_engine_golden import fingerprint\n"
        "print(json.dumps({case: fingerprint(case) for case in sys.argv[1:]}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *case_ids()],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    got = json.loads(done.stdout)
    assert len(got) == len(golden) == 132
    moved = [case for case in golden if got[case] != golden[case]]
    assert not moved, f"under PYTHONHASHSEED={seed} these differ from the recorded run: {moved}"


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        rows = [  # one case per line keeps the file, and its diffs, small
            f" {json.dumps(case)}: {json.dumps(fingerprint(case), sort_keys=True)}"
            for case in case_ids()
        ]
        GOLDEN.write_text(
            f'{{"generated_at": {json.dumps(sys.argv[2])}, "cases": {{\n'
            + ",\n".join(rows)
            + "\n}}\n"
        )
        print(f"wrote {len(rows)} cases to {GOLDEN}")
    else:
        print(json.dumps(run_case(sys.argv[1]), indent=1, sort_keys=True))
