"""Per-layer metrics of a traced window, from spans, counters and phases.

Every metric is reported on every workload; one whose layer does no work on a
workload (``net.*`` in process, ``resultcache.*`` without a result cache,
write metrics without writes) reads 0.
"""

from __future__ import annotations

from tracing import LAYER_OF

__all__ = ["layer_metrics", "layer_seconds"]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_seconds(summary: dict) -> dict[str, float]:
    """Self seconds per layer, summed over span and leaf names."""
    seconds: dict[str, float] = {}
    for group in (summary["spans"], summary["leaf"]):
        for name, row in group.items():
            layer = LAYER_OF.get(name.split(".", 1)[0])
            if layer is not None:
                seconds[layer] = seconds.get(layer, 0.0) + row["self_s"]
    return seconds


def layer_metrics(
    summary: dict,
    registry: dict,
    *,
    queries: int,
    writes: int,
    matches: int,
    transport: dict | None = None,
) -> dict[str, float]:
    """The ``per_layer`` metrics a traced window can compute on its own.

    ``summary`` is :meth:`tracing.Recorder.summary`, ``registry`` a
    ``repro.obs`` metrics snapshot of the same window; ``queries``, ``writes``
    and ``matches`` count what the window executed (``matches`` excludes
    answers served from the result cache).  The caller adds the
    ``server.overhead``, ``loadgen.*``, ``trace.*`` and ``writes.*`` metrics,
    which need the generator's clock.
    """
    counters = registry.get("counters", {})
    hops = registry.get("histograms", {}).get("overlay.route_hops", {})

    def count(name: str) -> float:
        return counters.get(name, 0)

    def row(name: str) -> dict:
        group = summary["leaf"] if name in summary["leaf"] else summary["spans"]
        return group.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_query_ms(seconds: float) -> float:
        return _ratio(seconds * 1e3, queries)

    def engine(field: str) -> float:
        return sum(
            row(f"engine.{part}")[field]
            for part in ("begin_run", "process_message", "finish_run")
        )

    membership = row("overlay.join")["calls"] + row("overlay.leave")["calls"]
    transport = transport or {}
    return {
        "keywords.parse_ms_per_query": per_query_ms(
            row("keywords.as_query")["self_s"] + row("keywords.region")["self_s"]
        ),
        "keywords.match_ms_per_query": per_query_ms(row("keywords.matches")["total_s"]),
        "keywords.match_calls_per_query": _ratio(row("keywords.matches")["calls"], queries),
        "sfc.refine_ms_per_query": per_query_ms(row("sfc.refine")["total_s"]),
        "sfc.refine_calls_per_query": _ratio(row("sfc.refine")["calls"], queries),
        "sfc.cells_per_query": _ratio(
            count("sfc.refine.vec_cells") + count("sfc.refine.scalar_cells"), queries
        ),
        "plancache.hit_ratio": _ratio(
            count("plan_cache.hits"), count("plan_cache.hits") + count("plan_cache.misses")
        ),
        "engine.self_ms_per_query": per_query_ms(engine("self_s")),
        "engine.visits_per_query": _ratio(row("engine.process_message")["calls"], queries),
        "engine.pruned_per_query": _ratio(count("query.pruned_branches.total"), queries),
        "engine.aggregated_batches_per_query": _ratio(
            count("query.aggregated_batches.total"), queries
        ),
        "overlay.route_ms_per_query": per_query_ms(row("overlay.route")["total_s"]),
        "overlay.routes_per_query": _ratio(count("overlay.routes"), queries),
        "overlay.hops_per_route": _ratio(hops.get("sum", 0), hops.get("count", 0)),
        "overlay.route_cache_hit_ratio": _ratio(
            count("overlay.route_cache.hits"),
            count("overlay.route_cache.hits") + count("overlay.route_cache.misses"),
        ),
        "overlay.route_cache_invalidations": count("overlay.route_cache.invalidations"),
        "overlay.join_leave_ms_per_op": _ratio(
            (row("overlay.join")["total_s"] + row("overlay.leave")["total_s"]) * 1e3,
            membership,
        ),
        "store.scan_ms_per_query": per_query_ms(row("store.scan")["total_s"]),
        "store.scans_per_query": _ratio(row("store.scan")["calls"], queries),
        "store.elements_scanned_per_match": _ratio(summary["scanned"], matches),
        "store.add_us_per_key": _ratio(row("store.add")["total_s"] * 1e6, summary["added"]),
        "store.keys_moved_per_join": _ratio(
            count("system.keys_moved"),
            count("system.nodes_joined") + count("system.nodes_left"),
        ),
        "resultcache.hit_ratio": _ratio(
            count("result_cache.hits"),
            count("result_cache.hits") + count("result_cache.misses"),
        ),
        "resultcache.lookup_us": _ratio(
            row("resultcache.get")["total_s"] * 1e6, row("resultcache.get")["calls"]
        ),
        "resultcache.invalidations_per_write": _ratio(
            count("result_cache.invalidations"), writes
        ),
        "transport.self_ms_per_query": per_query_ms(row("transport.submit")["self_s"]),
        "transport.delivered_per_query": _ratio(transport.get("delivered", 0), queries),
        "transport.stale_per_query": _ratio(transport.get("stale", 0), queries),
        "server.encode_ms_per_query": per_query_ms(row("server.encode")["total_s"]),
        "server.waiting_max": summary["waiting_max"],
    }
