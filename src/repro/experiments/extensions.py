"""Extension experiments — quantifying the paper's §5 future-work features.

These go beyond the paper's Figures 9-19; each is a
:class:`~repro.experiments.runner.FigureRow` of :data:`EXTENSIONS`, like the
paper figures, and is runnable via ``python -m repro run extA`` (.. ``extH``).

What each one measures is the docstring of its runner below; what it
claims, the row's ``claim``; what holds a run to it, its entry in
:data:`repro.experiments.report.SHAPE_CHECKS`.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import OptimizedEngine
from repro.core.metrics import HotspotMonitor
from repro.core.replication import ReplicationManager
from repro.core.system import SquidSystem
from repro.experiments.runner import FigureResult, FigureRow, ScalePreset
from repro.overlay.proximity import LatencyModel, ProximityChordRing
from repro.util.rng import as_generator
from repro.workloads.documents import DocumentWorkload
from repro.workloads.queries import q1_queries

__all__ = [
    "run_replication",
    "run_hotspots",
    "run_response_time",
    "run_result_cache",
    "run_curve_ablation",
    "EXTENSIONS",
]


def run_replication(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Elements lost in a 15% crash burst, by replication degree."""
    n_nodes = preset.node_counts[1]
    n_keys = preset.key_counts[1]
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=gen
    )
    result = FigureResult(
        row.id,
        row.title,
        columns=["degree", "elements", "lost", "recovered", "replica_overhead"],
    )
    for degree in (0, 1, 2, 3):
        system = SquidSystem.create(workload.space, n_nodes=n_nodes, seed=seed + 1)
        system.publish_many(workload.keys)
        total = system.total_elements()
        manager = ReplicationManager(system, degree=degree) if degree else None
        rng = np.random.default_rng(seed + 2)
        victims = rng.choice(
            system.overlay.node_ids(), size=max(1, int(0.15 * n_nodes)), replace=False
        )
        recovered = 0
        for victim in victims:
            if manager is None:
                system.fail_node(int(victim))
            else:
                successor = system.overlay.successor_id(int(victim))
                recovered += manager.crash(int(victim))
                manager.repair_around(successor)
        result.add_row(
            degree=degree,
            elements=total,
            lost=total - system.total_elements(),
            recovered=recovered,
            replica_overhead=manager.replica_count() if manager else 0,
        )
    result.notes.append("degree 0 = the paper's base system (crashes lose keys)")
    return result


def run_hotspots(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Zipf query stream: load and messages with/without result caching."""
    n_nodes = preset.node_counts[1]
    n_keys = preset.key_counts[1]
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=gen
    )
    base_queries = [str(q) for q in q1_queries(workload, count=8, rng=seed + 2)]
    rng = np.random.default_rng(seed + 3)
    weights = np.array([1 / (i + 1) for i in range(len(base_queries))])
    weights /= weights.sum()
    stream = [
        base_queries[i] for i in rng.choice(len(base_queries), size=120, p=weights)
    ]

    result = FigureResult(
        row.id,
        row.title,
        columns=["variant", "messages", "hottest_node_load", "hit_rate"],
    )
    for variant, cache in (("plain", False), ("cached", 64)):
        system = SquidSystem.create(
            workload.space, n_nodes=n_nodes, seed=seed + 1, result_cache=cache
        )
        system.publish_many(workload.keys)
        monitor = HotspotMonitor()
        messages = hits = 0
        for q in stream:
            stats = system.query(q, rng=seed + 4).stats
            monitor.record(stats)
            messages += stats.messages
            hits += stats.result_cache_hit
        result.add_row(
            variant=variant,
            messages=messages,
            hottest_node_load=monitor.max_load(),
            hit_rate=round(hits / len(stream), 3),
        )
    result.notes.append(f"{len(stream)}-query stream over {len(base_queries)} Zipf-ranked queries")
    return result


def run_response_time(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Query completion time: classic Chord fingers vs PNS, across sizes."""
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2,
        preset.key_counts[1],
        vocabulary_size=preset.vocabulary_size,
        rng=gen,
    )
    queries = q1_queries(workload, count=4, rng=seed + 1)
    result = FigureResult(
        row.id,
        row.title,
        columns=["nodes", "variant", "mean_completion", "mean_first_match"],
    )
    for n_nodes in preset.node_counts[:3]:
        base = SquidSystem.create(workload.space, n_nodes=n_nodes, seed=seed + 2)
        ids = base.overlay.node_ids()
        model = LatencyModel.random(ids, rng=seed + 3)
        pns_ring = ProximityChordRing.build_with_model(
            base.overlay.bits, ids, model=model, candidates=8
        )
        pns = SquidSystem(workload.space, pns_ring, curve=base.curve)
        base.publish_many(workload.keys)
        pns.publish_many(workload.keys)
        for variant, system in (("classic", base), ("pns", pns)):
            engine = OptimizedEngine(latency_model=model)
            completions, firsts = [], []
            for q in queries:
                stats = system.query(q, engine=engine, origin=ids[0], rng=0).stats
                completions.append(stats.completion_time)
                if stats.time_to_first_match is not None:
                    firsts.append(stats.time_to_first_match)
            result.add_row(
                nodes=n_nodes,
                variant=variant,
                mean_completion=round(float(np.mean(completions)), 1),
                mean_first_match=round(float(np.mean(firsts)), 1) if firsts else None,
            )
    result.notes.append("latency model: uniform-random peer coordinates on a 100x100 plane")
    return result


def run_churn(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Query exactness and routing staleness under churn (paper §3.2).

    Runs Poisson join/leave/crash churn on the discrete-event simulator at
    increasing rates, with and without periodic stabilization, measuring
    stale-finger fraction and live query behaviour over surviving data.
    """
    from repro.sim import ChurnConfig, ChurnProcess, Simulator, StabilizationProcess

    n_nodes = preset.node_counts[0]
    n_keys = preset.key_counts[0]
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=gen
    )
    query = f"({workload.keys[0][0][:3]}*, *)"

    result = FigureResult(
        row.id,
        row.title,
        columns=[
            "churn_rate",
            "stabilized",
            "stale_fingers",
            "query_exact",
            "query_messages",
            "peers",
        ],
    )
    for churn_rate in (0.5, 2.0, 5.0):
        for stabilized in (False, True):
            system = SquidSystem.create(workload.space, n_nodes=n_nodes, seed=seed + 1)
            system.publish_many(workload.keys)
            sim = Simulator()
            ChurnProcess(
                sim,
                system,
                ChurnConfig(
                    join_rate=churn_rate,
                    leave_rate=churn_rate / 2,
                    crash_rate=churn_rate / 2,
                    min_nodes=max(8, n_nodes // 3),
                ),
                rng=seed + 2,
            )
            if stabilized:
                StabilizationProcess(sim, system, interval=1.0, rng=seed + 3)
            sim.run_until(20.0)
            res = system.query(query, rng=seed + 4)
            want = len(system.brute_force_matches(query))
            result.add_row(
                churn_rate=churn_rate,
                stabilized=stabilized,
                stale_fingers=round(system.overlay.stale_finger_fraction(), 4),
                query_exact=res.match_count == want,
                query_messages=res.stats.messages,
                peers=len(system.overlay),
            )
    result.notes.append(
        "churn = Poisson joins at rate r, leaves and crashes at r/2, for 20 time units"
    )
    return result


def run_attack(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Recall under query-dropping adversaries (paper §5, attacks)."""
    from repro.core.adversary import run_attack_experiment
    from repro.workloads.queries import q1_queries as make_q1

    n_nodes = preset.node_counts[0]
    n_keys = preset.key_counts[0]
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=gen
    )
    queries = [str(q) for q in make_q1(workload, count=4, rng=seed + 1)]
    result = FigureResult(
        row.id,
        row.title,
        columns=["dropper_fraction", "mitigation", "recall", "messages"],
    )
    for fraction in (0.0, 0.1, 0.2, 0.3):
        for label, retry, degree in (
            ("none", False, 0),
            ("retry", True, 0),
            ("retry+replication", True, 2),
        ):
            system = SquidSystem.create(workload.space, n_nodes=n_nodes, seed=seed + 2)
            system.publish_many(workload.keys)
            measured = run_attack_experiment(
                system,
                queries,
                dropper_fraction=fraction,
                retry=retry,
                replication_degree=degree,
                rng=seed + 3,
            )
            result.add_row(
                dropper_fraction=fraction,
                mitigation=label,
                recall=round(measured["recall"], 3),
                messages=round(measured["messages"], 1),
            )
    result.notes.append(
        "droppers accept sub-queries and discard them; origins are honest"
    )
    return result


def run_faults(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Recall and message cost vs. message-fault rate (resilient execution).

    Pushes every dispatched message of the optimized engine through a
    seeded :class:`~repro.faults.FaultPlane` that drops messages at the
    given rate, and ladders the mitigations: ``none`` (faults silently
    lose branches — ``QueryResult.complete`` turns False and the unreached
    curve segments are reported), ``retry`` (timeouts, exponential backoff,
    successor failover), and ``retry+replication`` (failover targets serve
    the unreachable peer's share from replica stores — full recall and
    ``complete=True`` even at high fault rates).
    """
    from repro.faults import FaultConfig, FaultPlane, RetryPolicy
    from repro.workloads.queries import q1_queries as make_q1

    n_nodes = preset.node_counts[0]
    n_keys = preset.key_counts[0]
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=gen
    )
    queries = [str(q) for q in make_q1(workload, count=4, rng=seed + 1)]
    result = FigureResult(
        row.id,
        row.title,
        columns=[
            "fault_rate",
            "mitigation",
            "recall",
            "complete_fraction",
            "messages",
            "retries",
            "failovers",
            "lost_branches",
        ],
    )
    for rate in (0.0, 0.1, 0.2, 0.3):
        for label, retry, degree in (
            ("none", False, 0),
            ("retry", True, 0),
            ("retry+replication", True, 2),
        ):
            system = SquidSystem.create(workload.space, n_nodes=n_nodes, seed=seed + 2)
            system.publish_many(workload.keys)
            manager = ReplicationManager(system, degree=degree) if degree else None
            plane = FaultPlane(FaultConfig(drop_rate=rate, seed=seed + 3))
            engine = OptimizedEngine(
                fault_plane=plane,
                retry=RetryPolicy() if retry else None,
                replication=manager,
            )
            query_gen = as_generator(seed + 4)
            ids = system.overlay.node_ids()
            recalls, completes, messages = [], [], []
            retries = failovers = lost = 0
            for query in queries:
                want = {id(e) for e in system.brute_force_matches(query)}
                origin = ids[int(query_gen.integers(0, len(ids)))]
                res = engine.execute(system, query, origin=origin, rng=query_gen)
                got = {id(e) for e in res.matches}
                recalls.append(len(got & want) / len(want) if want else 1.0)
                completes.append(res.complete)
                messages.append(res.stats.messages)
                retries += res.stats.retries
                failovers += res.stats.failovers
                lost += res.stats.lost_branches
            result.add_row(
                fault_rate=rate,
                mitigation=label,
                recall=round(float(np.mean(recalls)), 3),
                complete_fraction=round(sum(completes) / len(completes), 3),
                messages=round(float(np.mean(messages)), 1),
                retries=retries,
                failovers=failovers,
                lost_branches=lost,
            )
    result.notes.append(
        "drops are seeded and per message; retry = backoff + successor failover"
    )
    return result


def run_result_cache(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Result-cache hit rate and staleness: skew x publish mix x TTL sweep.

    Replays synthetic traces (:func:`~repro.workloads.trace.synthetic_trace`)
    against a system with an initiator-side
    :class:`~repro.core.resultcache.ResultCache` driven by a logical-tick
    clock (one tick per trace operation), so TTL expiry is deterministic.
    The cache is kept smaller than the query pool so popularity skew — not
    mere pool exhaustion — determines the hit rate.  Every cache *hit* is
    verified against :meth:`~repro.core.system.SquidSystem.brute_force_matches`
    over the live stores; a disagreement is a stale result, and the
    ``stale`` column must stay 0 across the whole grid.
    """
    from repro.core.resultcache import ResultCache
    from repro.workloads.queries import q1_queries as make_q1
    from repro.workloads.trace import synthetic_trace

    n_nodes = preset.node_counts[0]
    n_keys = max(200, preset.key_counts[0] // 4)
    n_ops = 240
    pool_size = 64
    capacity = 8
    gen = as_generator(seed)
    workload = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=gen
    )
    queries = make_q1(workload, count=pool_size, rng=seed + 1)
    publish_keys = [
        workload.keys[i]
        for i in as_generator(seed + 2).choice(len(workload.keys), size=48, replace=False)
    ]
    result = FigureResult(
        row.id,
        row.title,
        columns=[
            "skew",
            "publish_mix",
            "ttl",
            "hit_rate",
            "invalidations",
            "expirations",
            "messages_saved",
            "stale",
        ],
    )
    for skew_pos, skew in enumerate((0.0, 0.6, 1.2)):
        for mix_pos, mix in enumerate((0.0, 0.10)):
            # The trace is fixed per (skew, mix) cell so the TTL variants
            # replay identical operation sequences.
            trace = synthetic_trace(
                queries,
                n_ops,
                zipf_exponent=skew,
                burstiness=0.1,
                publish_mix=mix,
                publish_keys=publish_keys if mix else None,
                rng=np.random.default_rng(seed * 100 + skew_pos * 10 + mix_pos),
            )
            for ttl in (None, 40):
                ticks = [0]
                cache = ResultCache(
                    capacity=capacity, ttl=ttl, clock=lambda t=ticks: t[0]
                )
                system = SquidSystem.create(
                    workload.space,
                    n_nodes=n_nodes,
                    seed=seed + 3,
                    result_cache=cache,
                )
                system.publish_many(workload.keys)
                origin_rng = as_generator(seed + 4)
                stale = 0
                for op in trace:
                    ticks[0] += 1
                    if op.kind == "publish":
                        system.publish(op.key, payload=op.payload)
                        continue
                    res = system.query(op.query, rng=origin_rng)
                    if res.stats.result_cache_hit:
                        want = sorted(
                            (e.key, str(e.payload))
                            for e in system.brute_force_matches(op.query)
                        )
                        got = sorted((e.key, str(e.payload)) for e in res.matches)
                        if got != want:
                            stale += 1  # pragma: no cover - stale guard
                result.add_row(
                    skew=skew,
                    publish_mix=mix,
                    ttl=ttl,
                    hit_rate=round(cache.hit_rate, 3),
                    invalidations=cache.invalidations,
                    expirations=cache.expirations,
                    messages_saved=cache.messages_saved,
                    stale=stale,
                )
    result.notes.append(
        f"{n_ops}-op traces over a {pool_size}-query pool, cache capacity "
        f"{capacity}; TTL in logical ticks (1 tick per operation)"
    )
    return result


def run_curve_ablation(row: FigureRow, preset: ScalePreset, seed: int) -> FigureResult:
    """Cluster count and message cost per query class, per curve family.

    The paper fixes the Hilbert curve; this ablation measures what that
    choice buys.  Two workloads cover the paper's three query classes:
    a document workload (Q1 single partial keyword, Q2 two keywords) and a
    grid-resource workload (Q3 all-range queries).  For every registered
    curve family the same seeded system is built, the same queries run, and
    the row reports the mean cluster count of the query regions (the
    message-cost driver: one cluster → one routed curve segment) alongside
    the measured end-to-end messages and processing nodes.
    """
    from repro.sfc import CURVES
    from repro.sfc.analysis import cluster_stats
    from repro.workloads.queries import (
        q1_queries,
        q2_queries,
        q3_full_range_queries,
    )
    from repro.workloads.resources import ResourceWorkload

    n_nodes = preset.node_counts[0]
    n_keys = preset.key_counts[0]
    doc = DocumentWorkload.generate(
        2, n_keys, vocabulary_size=preset.vocabulary_size, rng=seed
    )
    res = ResourceWorkload.generate(n_keys, bits=10, rng=seed + 1)
    classes = [
        ("Q1", doc, [str(q) for q in q1_queries(doc, count=6, rng=seed + 2)]),
        ("Q2", doc, [str(q) for q in q2_queries(doc, count=5, rng=seed + 3)]),
        ("Q3", res, [str(q) for q in q3_full_range_queries(res, count=5, rng=seed + 4)]),
    ]

    result = FigureResult(
        row.id,
        row.title,
        columns=[
            "curve",
            "query_class",
            "mean_clusters",
            "messages",
            "processing_nodes",
            "matches",
        ],
    )
    for name in sorted(CURVES):
        systems = {
            id(doc): SquidSystem.create(doc.space, n_nodes=n_nodes, curve=name, seed=seed + 5),
            id(res): SquidSystem.create(res.space, n_nodes=n_nodes, curve=name, seed=seed + 6),
        }
        systems[id(doc)].publish_many(doc.keys)
        systems[id(res)].publish_many(res.keys)
        for label, workload, queries in classes:
            system = systems[id(workload)]
            clusters, messages, processing, matches = [], [], [], 0
            for i, query in enumerate(queries):
                region = workload.space.region(query)
                clusters.append(cluster_stats(system.curve, region).cluster_count)
                r = system.query(query, rng=seed + 7 + i)
                messages.append(r.stats.messages)
                processing.append(r.stats.processing_node_count)
                matches += len(r.matches)
            result.add_row(
                curve=name,
                query_class=label,
                mean_clusters=round(float(np.mean(clusters)), 2),
                messages=round(float(np.mean(messages)), 1),
                processing_nodes=round(float(np.mean(processing)), 1),
                matches=matches,
            )
    result.notes.append("same seeded workloads and queries for every curve")
    return result


EXTENSIONS: dict[str, FigureRow] = {
    row.id: row
    for row in (
        FigureRow(
            "extA",
            "Crash-burst data loss vs replication degree (15% of peers crash)",
            "Future work (fault tolerance): replication prevents crash data loss.",
            30,
            run_replication,
        ),
        FigureRow(
            "extB",
            "Hot-spot mitigation: Zipf query stream with result caching",
            "Future work (hot-spots): result caching absorbs repeated queries.",
            31,
            run_hotspots,
        ),
        FigureRow(
            "extC",
            "Query completion time (latency units): classic vs PNS fingers",
            "Future work (geographic locality): PNS cuts query latency.",
            32,
            run_response_time,
        ),
        FigureRow(
            "extD",
            "Churn: stale routing state and query exactness over survivors",
            "Future work quantified (dynamism): exactness survives churn.",
            33,
            run_churn,
        ),
        FigureRow(
            "extE",
            "Recall under query-dropping adversaries",
            "Future work (attacks): retry + replication restore recall.",
            34,
            run_attack,
        ),
        FigureRow(
            "extF",
            "Resilient execution: recall and cost vs message-fault rate",
            "Robustness: retry + replication keep queries exact and complete "
            "under injected message faults; unmitigated faults are reported honestly.",
            35,
            run_faults,
        ),
        FigureRow(
            "extG",
            "Result cache: hit rate and staleness vs skew, update mix, TTL",
            "Perf: an initiator-side result cache absorbs skewed query streams "
            "without ever serving a stale answer (interval invalidation + TTL).",
            36,
            run_result_cache,
        ),
        FigureRow(
            "extH",
            "Curve ablation: clusters and message cost per query class",
            "§3.2 generalized: the curve mapping determines clustering and "
            "hence message cost per query class; answers never depend on it, and "
            "Hilbert costs no more clusters or messages than Z-order in any class.",
            37,
            run_curve_ablation,
        ),
    )
}
