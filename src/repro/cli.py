"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    List the reproduced figures and their titles.
``run FIGURE [--scale S] [--seed N]``
    Run one figure and print its table.
``report [--scale S] [--figures f1,f2] [--output PATH]``
    Run all figures, check the paper's shape claims, emit markdown; exits 1
    (failing labels on stderr) when a check is ``FAIL`` — CI's fidelity leg.
``demo``
    A 30-second end-to-end demonstration (publish + flexible queries).
``trace QUERY [--engine E] [--nodes N] [--seed S] [--json]``
    Run one query on a small demo system with a tracer attached and print
    the reconstructed refinement tree, the stats, and the metrics snapshot.
``chaos [--drop-rate R] [--crash-rate R] [--mitigation M] [--assert-complete]``
    Run seeded queries through an injected fault plane and print recall,
    completeness, and retry/failover accounting.  ``--assert-complete``
    exits non-zero unless recall is 1.0 and every result is complete —
    the CI chaos smoke test.
``serve [--port P] [--nodes N] [--docs D] [--engine E] [--max-inflight M]
[--max-backlog B] [--guard]``
    Build a seeded demo system and serve it over HTTP/JSON (POST /query,
    GET /healthz /stats /metrics) on an asyncio transport that multiplexes
    concurrent queries over per-node priority inboxes (see
    ``docs/serving.md``).  ``--max-backlog`` bounds the waiting room
    (excess requests get 429 + Retry-After) and ``--guard`` arms the
    engine with a per-node overload guard plane (see ``docs/overload.md``).
``loadgen [--port P | --self-serve] [--mode open|closed] [--rate R]
[--concurrency C] [--queries N] [--priority CLASS] [--deadline S]
[--guard] [--check | --check-overload]``
    Replay a skewed trace workload against a running server (or a
    self-served one) and report QPS, per-status-code counts, goodput
    (complete in-deadline answers/sec), and p50/p95/p99 latency.
    ``--check`` exits non-zero unless the run was spotless (zero errors,
    zero 429s, finite percentiles) — the CI serve smoke test;
    ``--check-overload`` instead asserts graceful degradation under
    deliberate overload (zero 5xx/hard errors, shed fraction within
    ``--max-shed-fraction``, finite percentiles) — the CI overload smoke.

``run`` and ``report`` accept ``--profile`` to time the hot SFC/engine
phases and print the per-phase table after the run.  ``run``, ``report``,
and ``replicate`` accept ``--workers N`` to execute query batches across N
worker processes (results are identical for any N; only wall-clock time
changes).  ``run`` and ``chaos`` accept
``--store NAME`` (a name in ``repro.store.REGISTRY``) to select the
node-store backend the systems are built on (results are identical for any
backend; only throughput and memory change — see ``docs/storage.md``),
``--curve NAME`` (a name in ``repro.sfc.CURVES``, or ``auto``) to select the
space-filling curve family (answers are identical for any curve; message
costs differ — ``auto`` picks the cheapest for a sampled workload, see
``docs/performance.md``), and
``--result-cache N`` to attach an initiator-side result cache of capacity
N to every system built during the command (match sets are identical with
or without it; see ``docs/performance.md`` §7).  The flags given are laid
over ``repro.config.Config.from_env()`` and the command runs inside that one
config; a setting it rejects ends the command with exit code 2 and a
one-line ``repro: error: ...``.

The repository benchmark is not a subcommand: run ``python3 perf/run.py``
from the repo root (``docs/performance.md`` §8).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.config import Config, using
from repro.errors import ConfigError

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Squid (HPDC'03) reproduction: flexible P2P information discovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list reproduced figures")

    run_p = sub.add_parser("run", help="run one figure or extension")
    run_p.add_argument("figure", help="figure id, e.g. fig09 or extA")
    run_p.add_argument("--scale", default="small", choices=["small", "medium", "full"])
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    run_p.add_argument(
        "--profile", action="store_true", help="time hot phases and print the table"
    )
    _add_workers_flag(run_p)
    _add_curve_flag(run_p)
    _add_store_flag(run_p)
    _add_result_cache_flag(run_p)

    repl_p = sub.add_parser("replicate", help="run a figure across several seeds")
    repl_p.add_argument("figure", help="figure id, e.g. fig09")
    repl_p.add_argument("--scale", default="small", choices=["small", "medium", "full"])
    repl_p.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    _add_workers_flag(repl_p)

    rep_p = sub.add_parser("report", help="run all figures, emit markdown report")
    rep_p.add_argument("--scale", default="small", choices=["small", "medium", "full"])
    rep_p.add_argument("--figures", default=None, help="comma-separated subset")
    rep_p.add_argument("--output", default=None, help="write report to this path")
    rep_p.add_argument(
        "--profile", action="store_true", help="append a per-phase profile section"
    )
    _add_workers_flag(rep_p)

    sub.add_parser("demo", help="end-to-end demonstration")

    trace_p = sub.add_parser("trace", help="trace one query's refinement tree")
    trace_p.add_argument(
        "query", nargs="?", default="(comp*, *)", help="query string, e.g. '(comp*, *)'"
    )
    trace_p.add_argument(
        "--engine", default="optimized", choices=["optimized", "naive"]
    )
    trace_p.add_argument("--nodes", type=int, default=64)
    trace_p.add_argument("--seed", type=int, default=42)
    trace_p.add_argument(
        "--json", action="store_true", help="emit the trace tree as JSON"
    )

    chaos_p = sub.add_parser(
        "chaos", help="run seeded queries under an injected fault plane"
    )
    chaos_p.add_argument("--nodes", type=int, default=48)
    chaos_p.add_argument("--docs", type=int, default=400)
    chaos_p.add_argument("--queries", type=int, default=8)
    chaos_p.add_argument("--seed", type=int, default=7)
    chaos_p.add_argument("--drop-rate", type=float, default=0.25)
    chaos_p.add_argument("--crash-rate", type=float, default=0.0)
    chaos_p.add_argument("--duplicate-rate", type=float, default=0.0)
    chaos_p.add_argument("--delay-rate", type=float, default=0.0)
    chaos_p.add_argument(
        "--mitigation",
        default="retry+replication",
        choices=["none", "retry", "retry+replication"],
    )
    chaos_p.add_argument(
        "--degree", type=int, default=2, help="replication degree"
    )
    chaos_p.add_argument(
        "--assert-complete",
        action="store_true",
        help="exit 1 unless recall is 1.0 and every result is complete",
    )
    _add_curve_flag(chaos_p)
    _add_store_flag(chaos_p)
    _add_result_cache_flag(chaos_p)

    serve_p = sub.add_parser("serve", help="serve queries over HTTP/JSON")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8642, help="0 binds an ephemeral port"
    )
    serve_p.add_argument("--nodes", type=int, default=64)
    serve_p.add_argument("--docs", type=int, default=2_000)
    serve_p.add_argument("--seed", type=int, default=42)
    serve_p.add_argument(
        "--engine", default="optimized", choices=["optimized", "naive"]
    )
    serve_p.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission bound on concurrent in-flight queries",
    )
    serve_p.add_argument(
        "--max-backlog",
        type=int,
        default=None,
        help="bound on requests waiting for a slot; excess gets 429 "
        "(default: unbounded waiting, the legacy closed-loop behaviour)",
    )
    serve_p.add_argument(
        "--guard",
        action="store_true",
        help="arm the engine with a per-node overload guard plane "
        "(bounded node backlogs; sheds unprotected work honestly)",
    )
    serve_p.add_argument(
        "--inbox-capacity",
        type=int,
        default=128,
        help="bound of each node's asyncio inbox",
    )
    serve_p.add_argument(
        "--per-message-delay",
        type=float,
        default=0.0,
        metavar="S",
        help="simulated per-message wire latency in seconds",
    )
    _add_curve_flag(serve_p)
    _add_store_flag(serve_p)
    _add_result_cache_flag(serve_p)

    lg_p = sub.add_parser(
        "loadgen", help="replay a trace workload against a query server"
    )
    lg_p.add_argument("--host", default="127.0.0.1")
    lg_p.add_argument("--port", type=int, default=None)
    lg_p.add_argument(
        "--self-serve",
        action="store_true",
        help="build a demo system + server in-process (no --port needed)",
    )
    lg_p.add_argument("--queries", type=int, default=200)
    lg_p.add_argument("--mode", default="open", choices=["open", "closed"])
    lg_p.add_argument(
        "--rate", type=float, default=100.0, help="open-loop arrival rate (req/s)"
    )
    lg_p.add_argument("--concurrency", type=int, default=16)
    lg_p.add_argument(
        "--priority",
        default=None,
        choices=["interactive", "batch", "background"],
        help="priority class stamped onto every request (default: server "
        "default, interactive)",
    )
    lg_p.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="classify 200 answers slower than S seconds as late "
        "(never abandons a request; goodput counts in-deadline answers)",
    )
    lg_p.add_argument("--seed", type=int, default=42)
    lg_p.add_argument("--nodes", type=int, default=64, help="self-serve ring size")
    lg_p.add_argument("--docs", type=int, default=2_000, help="self-serve corpus")
    lg_p.add_argument(
        "--per-message-delay", type=float, default=0.0, metavar="S",
        help="self-serve simulated wire latency in seconds",
    )
    lg_p.add_argument(
        "--guard",
        action="store_true",
        help="self-serve only: arm the engine with the default overload "
        "guard plane (bounded node backlogs, honest shedding)",
    )
    lg_p.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="self-serve only: server admission bound "
        "(default: max(64, concurrency))",
    )
    lg_p.add_argument(
        "--max-backlog",
        type=int,
        default=None,
        help="self-serve only: server waiting-room cap; excess gets 429 "
        "(default: unbounded waiting)",
    )
    lg_p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless zero errors, zero 429s, and finite p50/p95/p99",
    )
    lg_p.add_argument(
        "--check-overload",
        action="store_true",
        help="exit 1 unless degradation was graceful: zero 5xx/hard errors, "
        "shed fraction within --max-shed-fraction, finite percentiles",
    )
    lg_p.add_argument(
        "--max-shed-fraction",
        type=float,
        default=0.5,
        metavar="F",
        help="--check-overload bound on (429s + shed answers) / sent",
    )
    lg_p.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_curve_flag(lg_p)
    _add_store_flag(lg_p)

    args = parser.parse_args(argv)

    flags = {
        field: getattr(args, field)
        for field in ("curve", "store", "result_cache", "workers")
        if getattr(args, field, None) is not None
    }
    try:
        with using(replace(Config.from_env(), **flags)):
            return _dispatch(args)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "figures":
        return _cmd_figures()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "replicate":
        return _cmd_replicate(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _add_workers_flag(subparser) -> None:
    subparser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for query batches (results identical for any N)",
    )


def _add_curve_flag(subparser) -> None:
    from repro.sfc import CURVES

    subparser.add_argument(
        "--curve",
        default=None,
        choices=sorted(CURVES) + ["auto"],
        help="space-filling-curve family for system construction "
        "(answers identical for any curve; costs differ — 'auto' picks "
        "the cheapest for a sampled workload)",
    )


def _add_store_flag(subparser) -> None:
    from repro.store import REGISTRY

    subparser.add_argument(
        "--store",
        default=None,
        choices=sorted(REGISTRY),
        help="node-store backend (results identical for any backend)",
    )


def _add_result_cache_flag(subparser) -> None:
    subparser.add_argument(
        "--result-cache",
        type=int,
        default=None,
        metavar="N",
        help="attach an initiator-side result cache of capacity N to every "
        "system (match sets identical with or without; see docs/performance.md)",
    )


def _cmd_figures() -> int:
    from repro.experiments import EXTENSIONS, FIGURES

    for heading, table in (
        ("Paper figures:", FIGURES),
        ("Extension experiments:", EXTENSIONS),
    ):
        print(heading)
        for name in sorted(table):
            print(f"  {name}: {table[name].claim}")
    return 0


def _cmd_run(args) -> int:
    from repro.experiments import run_figure

    kwargs = {"scale": args.scale}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.profile:
        from repro.obs import profiling

        with profiling() as profiler:
            result = run_figure(args.figure, **kwargs)
        print(result.to_csv() if args.csv else result.to_text())
        print()
        print(profiler.to_text())
        return 0
    result = run_figure(args.figure, **kwargs)
    print(result.to_csv() if args.csv else result.to_text())
    return 0


def _cmd_replicate(args) -> int:
    from repro.experiments.replicate import replicate_figure

    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    result = replicate_figure(args.figure, seeds=seeds, scale=args.scale)
    print(result.to_text())
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    figures = args.figures.split(",") if args.figures else None
    report = generate_report(scale=args.scale, figures=figures, profile=args.profile)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"report written to {args.output}")
    else:
        print(report)
    failed = [line for line in report.splitlines() if line.startswith("- [FAIL] ")]
    for line in failed:
        print(line[2:], file=sys.stderr)
    return 1 if failed else 0


def _cmd_demo() -> int:
    from repro import KeywordSpace, SquidSystem, WordDimension

    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=16)
    system = SquidSystem.create(space, n_nodes=64, seed=42)
    docs = [
        (("computer", "network"), "doc-net"),
        (("computer", "netbook"), "doc-netbook"),
        (("computation", "theory"), "doc-theory"),
        (("database", "network"), "doc-db"),
    ]
    for key, payload in docs:
        system.publish(key, payload=payload)
    print(f"{len(docs)} documents on {len(system.overlay)} peers")
    for query in ["(computer, network)", "(comp*, *)", "(*, net*)"]:
        result = system.query(query, rng=0)
        payloads = sorted(e.payload for e in result.matches)
        print(
            f"{query:24s} -> {payloads} "
            f"[{result.stats.messages} msgs, "
            f"{result.stats.processing_node_count} peers]"
        )
    return 0


def _cmd_trace(args) -> int:
    from repro import KeywordSpace, SquidSystem, WordDimension
    from repro.obs import collecting

    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=16)
    system = SquidSystem.create(
        space, n_nodes=args.nodes, seed=args.seed, engine=args.engine
    )
    docs = [
        (("computer", "network"), "doc-net"),
        (("computer", "netbook"), "doc-netbook"),
        (("computation", "theory"), "doc-theory"),
        (("database", "network"), "doc-db"),
        (("compiler", "design"), "doc-compiler"),
    ]
    for key, payload in docs:
        system.publish(key, payload=payload)

    system.attach_tracer()
    with collecting() as registry:
        result = system.query(args.query, rng=args.seed)
    assert result.trace is not None
    if args.json:
        print(result.trace.to_json(indent=2))
        return 0
    print(result.trace.render())
    print()
    print("stats:")
    for field, value in sorted(result.stats.as_dict().items()):
        print(f"  {field}: {value}")
    print()
    print("metrics:")
    print(registry.to_text())
    return 0


def _cmd_chaos(args) -> int:
    import numpy as np

    from repro.core.engine import OptimizedEngine
    from repro.core.replication import ReplicationManager
    from repro.core.system import SquidSystem
    from repro.faults import FaultConfig, FaultPlane, RetryPolicy
    from repro.obs import collecting
    from repro.workloads.documents import DocumentWorkload
    from repro.workloads.queries import q1_queries

    gen = np.random.default_rng(args.seed)
    workload = DocumentWorkload.generate(2, args.docs, rng=gen)
    system = SquidSystem.create(
        workload.space, n_nodes=args.nodes, seed=args.seed + 1
    )
    system.publish_many(workload.keys)
    manager = (
        ReplicationManager(system, degree=args.degree)
        if args.mitigation == "retry+replication"
        else None
    )
    plane = FaultPlane(
        FaultConfig(
            drop_rate=args.drop_rate,
            crash_rate=args.crash_rate,
            duplicate_rate=args.duplicate_rate,
            delay_rate=args.delay_rate,
            seed=args.seed + 2,
        )
    )
    plane.attach_system(system, replication=manager)
    engine = OptimizedEngine(
        fault_plane=plane,
        retry=RetryPolicy() if args.mitigation != "none" else None,
        replication=manager,
    )

    queries = [str(q) for q in q1_queries(workload, count=args.queries, rng=args.seed + 3)]
    ids = system.overlay.node_ids()
    recalls = []
    completes = []
    with collecting() as registry:
        for query in queries:
            want = {id(e) for e in system.brute_force_matches(query)}
            origin = ids[int(gen.integers(0, len(ids)))]
            res = engine.execute(system, query, origin=origin, rng=gen)
            got = {id(e) for e in res.matches}
            recall = len(got & want) / len(want) if want else 1.0
            recalls.append(recall)
            completes.append(res.complete)
            unresolved = (
                f" unresolved={len(res.unresolved_ranges)}r/{res.unresolved_span}i"
                if res.unresolved_ranges
                else ""
            )
            print(
                f"{query:28s} recall={recall:.3f} complete={res.complete} "
                f"msgs={res.stats.messages} retries={res.stats.retries} "
                f"failovers={res.stats.failovers}"
                f"{unresolved}"
            )
    mean_recall = sum(recalls) / len(recalls)
    all_complete = all(completes)
    fs = plane.stats
    print(
        f"\nmitigation={args.mitigation} drop={args.drop_rate} "
        f"crash={args.crash_rate}: mean recall {mean_recall:.3f}, "
        f"{sum(completes)}/{len(completes)} complete"
    )
    print(
        f"fault plane: {fs.messages} transmissions, {fs.dropped} dropped, "
        f"{fs.crashed} crashed, {fs.duplicated} duplicated, {fs.delayed} delayed"
    )
    faults_metrics = {
        name: value
        for name, value in sorted(registry.snapshot()["counters"].items())
        if name.startswith(("faults.", "query.retries", "query.failovers",
                            "query.lost_branches"))
    }
    if faults_metrics:
        print("metrics: " + ", ".join(f"{k}={v}" for k, v in faults_metrics.items()))
    if args.assert_complete and not (mean_recall == 1.0 and all_complete):
        print("FAIL: expected recall 1.0 with every result complete")
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.net import QueryServer, build_demo_system

    engine = args.engine
    if args.guard:
        from repro.core.engine import make_engine
        from repro.guard import GuardConfig, GuardPlane
        from repro.net.loadgen import DEFAULT_GUARD_KWARGS

        engine = make_engine(
            args.engine, guard=GuardPlane(GuardConfig(**DEFAULT_GUARD_KWARGS))
        )
    system = build_demo_system(
        seed=args.seed, n_nodes=args.nodes, n_docs=args.docs, engine=engine
    )

    async def _serve() -> None:
        server = QueryServer(
            system,
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_backlog=args.max_backlog,
            inbox_capacity=args.inbox_capacity,
            per_message_delay=args.per_message_delay,
        )
        await server.start()
        print(
            f"serving {len(system.overlay)} nodes / {args.docs} docs "
            f"on http://{server.host}:{server.port} "
            f"(engine={args.engine}, max_inflight={args.max_inflight}, "
            f"max_backlog={args.max_backlog}, guard={args.guard})"
        )
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_loadgen(args) -> int:
    import json

    from repro.errors import ServingError
    from repro.net import run_loadgen

    try:
        report = run_loadgen(
            host=args.host,
            port=args.port,
            queries=args.queries,
            mode=args.mode,
            rate=args.rate,
            concurrency=args.concurrency,
            seed=args.seed,
            self_serve=args.self_serve,
            nodes=args.nodes,
            docs=args.docs,
            per_message_delay=args.per_message_delay,
            priority=args.priority,
            deadline=args.deadline,
            guard=args.guard,
            max_inflight=args.max_inflight,
            max_backlog=args.max_backlog,
            check=args.check,
            check_overload=args.check_overload,
            max_shed_fraction=args.max_shed_fraction,
        )
    except ServingError as exc:
        print(f"FAIL: {exc}")
        return 1
    print(json.dumps(report.as_dict(), indent=2) if args.json else report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

