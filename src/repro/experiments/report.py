"""Generate the paper-vs-measured experiment report (EXPERIMENTS.md body).

Runs every reproduced figure at the requested scale, checks the paper's
shape claims programmatically, and emits a markdown report.  Invoked by
``python -m repro report [--scale small|medium|full]``, which exits 1 when
any check fails.  A check in :data:`SHAPE_CHECKS` gets its figure's result
and ``figure(name)``, which returns another figure's result from the same
run (computed once, at the same scale): some claims compare two sweeps.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

import numpy as np

from repro.experiments import FIGURES, figure_row, run_figure
from repro.experiments.runner import FigureResult
from repro.util.stats import coefficient_of_variation

__all__ = ["generate_report", "SHAPE_CHECKS"]

Check = tuple[str, bool, str]
Figure = Callable[[str], FigureResult]


def _check_sweep(result: FigureResult) -> list[Check]:
    """Shape checks shared by the growth-sweep figures."""
    checks = []
    rows = result.rows
    ordering = all(
        r["data_nodes"] <= r["processing_nodes"] <= r["routing_nodes"] for r in rows
    )
    checks.append(("data <= processing <= routing nodes", ordering, ""))
    frac = max(r["processing_nodes"] / r["nodes"] for r in rows)
    checks.append(
        (
            "processing nodes a fraction of the system",
            frac < 0.6,
            f"worst fraction {frac:.2f}",
        )
    )
    by_query: dict[str, list[dict]] = {}
    for r in rows:
        by_query.setdefault(r["query_id"], []).append(r)
    sub = 0
    for q_rows in by_query.values():
        n0, n1 = q_rows[0]["nodes"], q_rows[-1]["nodes"]
        p0, p1 = q_rows[0]["processing_nodes"], q_rows[-1]["processing_nodes"]
        if p0 == 0 or p1 / p0 <= 0.9 * (n1 / n0) + 1:
            sub += 1
    checks.append(
        (
            "processing nodes grow sublinearly in system size",
            sub >= len(by_query) - 1,
            f"{sub}/{len(by_query)} queries sublinear",
        )
    )
    return checks


def _mean_processing_at_largest(result: FigureResult) -> float:
    largest = result.filtered(nodes=max(result.series("nodes")))
    return float(np.mean(largest.series("processing_nodes")))


def _check_not_monotone(result: FigureResult) -> Check:
    """Ordering the queries by matches does not order them by cost."""
    by_size: dict[int, list[dict]] = {}
    for r in result.rows:
        by_size.setdefault(r["nodes"], []).append(r)
    hits = 0
    for rows in by_size.values():
        # Ties in matches are laid out in cost order: only a real inversion counts.
        rows = sorted(rows, key=lambda r: (r["matches"], r["processing_nodes"]))
        cost = [r["processing_nodes"] for r in rows]
        hits += cost != sorted(cost)
    return (
        "processing cost not monotone in the number of matches",
        2 * hits > len(by_size),
        f"{hits}/{len(by_size)} sizes non-monotone",
    )


def _check_cheaper_than(result: FigureResult, q1: FigureResult) -> Check:
    q2_cost, q1_cost = _mean_processing_at_largest(result), _mean_processing_at_largest(q1)
    return (
        f"cheaper than the Q1 queries of {q1.figure}",
        q2_cost < q1_cost,
        f"mean processing nodes at the largest size {q1_cost:.1f} -> {q2_cost:.1f}",
    )


def _check_matches_found(result: FigureResult) -> Check:
    return (
        "every query finds at least one match at every size",
        all(r["matches"] >= 1 for r in result.rows),
        "",
    )


def _check_fig09(result: FigureResult, _figure: Figure) -> list[Check]:
    """Expected shape: processing and data nodes are a small fraction of the
    system and grow sublinearly; data nodes track processing nodes closely;
    processing cost is not monotone in match count.
    """
    return _check_sweep(result) + [_check_not_monotone(result)]


def _check_fig11(result: FigureResult, figure: Figure) -> list[Check]:
    """Expected shape: significantly cheaper than Q1 (Figure 9) — "query
    optimization and pruning are effective when both keywords are at least
    partially known".
    """
    return _check_sweep(result) + [_check_cheaper_than(result, figure("fig09"))]


def _check_fig12(result: FigureResult, figure: Figure) -> list[Check]:
    """Expected shape: the same pattern as 2-D (Figure 9) with magnitudes
    2-3x larger — "for the same types of queries there are more clusters in
    the 3D case than in the 2D case" (a longer curve fragments a
    fixed-keyword query into more segments).
    """
    cost_3d = _mean_processing_at_largest(result)
    cost_2d = _mean_processing_at_largest(figure("fig09"))
    return _check_sweep(result) + [
        _check_not_monotone(result),
        (
            "3-D magnitude at least that of the 2-D case (fig09)",
            cost_3d >= 0.8 * cost_2d,
            f"mean processing nodes at the largest size {cost_2d:.1f} -> {cost_3d:.1f}",
        ),
    ]


def _check_fig14(result: FigureResult, figure: Figure) -> list[Check]:
    """Expected shape: the Q2-beats-Q1 pruning effect of Figure 11, in 3-D."""
    return _check_sweep(result) + [_check_cheaper_than(result, figure("fig12"))]


def _check_fig15(result: FigureResult, _figure: Figure) -> list[Check]:
    """Expected shape: "the results do not depend on the size of the range
    (because the index space is not uniformly populated), but more on the
    number of matches found and the distribution of the data."
    """
    largest = result.filtered(nodes=max(result.series("nodes")))
    corr = float(
        np.corrcoef(largest.series("matches"), largest.series("data_nodes"))[0, 1]
    )
    return _check_sweep(result) + [
        _check_matches_found(result),
        (
            "data nodes track matches, not range width",
            corr > 0,
            f"correlation {corr:.2f} at the largest size",
        ),
    ]


def _check_fig17(result: FigureResult, _figure: Figure) -> list[Check]:
    """Expected shape: as Figure 15 — cost tracks the matches and the data
    distribution rather than the range widths.
    """
    return _check_sweep(result) + [_check_matches_found(result)]


def _check_snapshot(result: FigureResult, _figure: Figure) -> list[Check]:
    """Expected shape (Figures 10, 13, 16): routing >> processing ~= data,
    messages ~ 2x processing nodes, everything far below the system size.
    """
    rows = result.rows
    checks = []
    checks.append(
        (
            "routing >> processing ~= data, all << system size",
            all(
                r["data_nodes"] <= r["processing_nodes"] <= r["routing_nodes"] < r["nodes"]
                and r["processing_nodes"] < r["nodes"] / 2
                for r in rows
            ),
            "",
        )
    )
    ratios = [r["messages"] / max(r["processing_nodes"], 1) for r in rows]
    checks.append(
        (
            "messages ~ 2x processing nodes",
            all(0.8 <= x <= 6 for x in ratios),
            f"ratios {min(ratios):.1f}-{max(ratios):.1f}",
        )
    )
    return checks


def _check_fig18(result: FigureResult, _figure: Figure) -> list[Check]:
    """Expected shape: strongly non-uniform — the SFC preserves keyword
    locality, so Zipf-skewed, lexicographically clustered keywords produce
    dense and empty regions of the curve.  This is the motivation for §3.5's
    load balancing.
    """
    counts = np.array(result.series("keys"), dtype=float)
    return [
        (
            "key distribution strongly non-uniform",
            counts.max() > 5 * counts.mean(),
            f"peak/mean = {counts.max() / counts.mean():.1f}",
        ),
        (
            "dense and empty index regions coexist",
            bool(np.sum(counts == 0) > 10),
            f"{int(np.sum(counts == 0))} empty of 500 intervals",
        ),
    ]


def _check_fig19(result: FigureResult, _figure: Figure) -> list[Check]:
    """Expected shape: the raw (no-LB) distribution is very uneven (Figure
    18's skew lands on uniformly-placed nodes); join-time balancing clearly
    improves it; join + runtime balancing is close to even ("the load is
    almost evenly distributed in this case").
    """
    loads = {
        variant: [r["load"] for r in result.rows if r["variant"] == variant]
        for variant in ("none", "join", "join+runtime")
    }
    none, join, both = (coefficient_of_variation(series) for series in loads.values())
    peak_none, peak_both = max(loads["none"]), max(loads["join+runtime"])
    return [
        ("join-time LB improves on no LB", join < none, f"CoV {none:.2f} -> {join:.2f}"),
        (
            "join + runtime LB improves further (near even)",
            both < join,
            f"CoV {join:.2f} -> {both:.2f}",
        ),
        (
            "key total conserved across schemes; peak load falls",
            len({sum(series) for series in loads.values()}) == 1
            and peak_both < peak_none,
            f"max load {peak_none} -> {peak_both}",
        ),
    ]


def _check_extA(result: FigureResult, _figure: Figure) -> list[Check]:
    by_degree = {row["degree"]: row for row in result.rows}
    return [
        ("unreplicated crash burst loses data", by_degree[0]["lost"] > 0, ""),
        (
            "any replication degree prevents loss",
            all(by_degree[d]["lost"] == 0 for d in (1, 2, 3)),
            "",
        ),
    ]


def _check_extB(result: FigureResult, _figure: Figure) -> list[Check]:
    plain = next(r for r in result.rows if r["variant"] == "plain")
    cached = next(r for r in result.rows if r["variant"] == "cached")
    return [
        (
            "caching cuts messages and peak load",
            cached["messages"] < plain["messages"]
            and cached["hottest_node_load"] <= plain["hottest_node_load"],
            f"messages {plain['messages']} -> {cached['messages']}",
        ),
        ("high hit rate on the Zipf stream", cached["hit_rate"] > 0.7, ""),
    ]


def _check_extC(result: FigureResult, _figure: Figure) -> list[Check]:
    largest = max(r["nodes"] for r in result.rows)
    classic = next(
        r for r in result.rows if r["nodes"] == largest and r["variant"] == "classic"
    )
    pns = next(r for r in result.rows if r["nodes"] == largest and r["variant"] == "pns")
    return [
        (
            "PNS no slower than classic fingers at the largest size",
            pns["mean_completion"] <= classic["mean_completion"] * 1.2,
            f"{classic['mean_completion']} -> {pns['mean_completion']}",
        )
    ]


def _check_extD(result: FigureResult, _figure: Figure) -> list[Check]:
    return [
        (
            "queries stay exact over survivors at every churn rate",
            all(r["query_exact"] for r in result.rows),
            "",
        ),
        (
            "stabilization reduces stale fingers",
            all(
                next(
                    r2["stale_fingers"]
                    for r2 in result.rows
                    if r2["churn_rate"] == r["churn_rate"] and r2["stabilized"]
                )
                <= r["stale_fingers"]
                for r in result.rows
                if not r["stabilized"]
            ),
            "",
        ),
    ]


def _check_extE(result: FigureResult, _figure: Figure) -> list[Check]:
    ladder_ok = True
    for fraction in {r["dropper_fraction"] for r in result.rows}:
        rows = {
            r["mitigation"]: r["recall"]
            for r in result.rows
            if r["dropper_fraction"] == fraction
        }
        if not rows["none"] <= rows["retry"] + 1e-9 <= rows["retry+replication"] + 2e-9:
            ladder_ok = False
    return [
        ("mitigation ladder: none <= retry <= retry+replication", ladder_ok, ""),
        (
            "unmitigated attack hurts recall",
            any(
                r["recall"] < 0.9
                for r in result.rows
                if r["dropper_fraction"] >= 0.2 and r["mitigation"] == "none"
            ),
            "",
        ),
    ]


def _check_extF(result: FigureResult, _figure: Figure) -> list[Check]:
    by_config = {
        (r["fault_rate"], r["mitigation"]): r for r in result.rows
    }
    rates = sorted({r["fault_rate"] for r in result.rows})
    zero_exact = all(
        by_config[(0.0, m)]["recall"] == 1.0
        and by_config[(0.0, m)]["complete_fraction"] == 1.0
        for m in ("none", "retry", "retry+replication")
    )
    mitigated_exact = all(
        by_config[(rate, "retry+replication")]["recall"] == 1.0
        and by_config[(rate, "retry+replication")]["complete_fraction"] == 1.0
        for rate in rates
    )
    unmitigated_hurts = any(
        by_config[(rate, "none")]["recall"] < 0.9
        and by_config[(rate, "none")]["complete_fraction"] < 1.0
        for rate in rates
        if rate >= 0.2
    )
    ladder_ok = all(
        by_config[(rate, "none")]["recall"]
        <= by_config[(rate, "retry")]["recall"] + 1e-9
        <= by_config[(rate, "retry+replication")]["recall"] + 2e-9
        for rate in rates
    )
    return [
        ("zero fault rate: every mitigation exact and complete", zero_exact, ""),
        (
            "retry+replication: recall 1.0 and complete at every fault rate",
            mitigated_exact,
            "",
        ),
        (
            "unmitigated faults lose recall and completeness",
            unmitigated_hurts,
            "",
        ),
        ("mitigation ladder: none <= retry <= retry+replication", ladder_ok, ""),
    ]


def _check_extG(result: FigureResult, _figure: Figure) -> list[Check]:
    def rate(skew: float, mix: float, ttl) -> float:
        return next(
            r["hit_rate"]
            for r in result.rows
            if r["skew"] == skew and r["publish_mix"] == mix and r["ttl"] == ttl
        )

    skews = sorted({r["skew"] for r in result.rows})
    mixes = sorted({r["publish_mix"] for r in result.rows})
    ttls = {r["ttl"] for r in result.rows}
    finite_ttl = next(t for t in ttls if t is not None)
    base = [rate(s, mixes[0], None) for s in skews]
    skew_helps = all(a <= b + 1e-9 for a, b in zip(base, base[1:])) and (
        base[-1] > base[0] + 0.1
    )
    updates_hurt = all(
        rate(s, mixes[-1], None) <= rate(s, mixes[0], None) + 0.02 for s in skews
    )
    ttl_costs = all(
        rate(s, m, finite_ttl) <= rate(s, m, None) + 0.02
        for s in skews
        for m in mixes
    )
    return [
        (
            "hit rate grows with query skew",
            skew_helps,
            f"{base[0]:.2f} -> {base[-1]:.2f}",
        ),
        ("publish mix costs hit rate (invalidation)", updates_hurt, ""),
        ("finite TTL never beats no-TTL", ttl_costs, ""),
        (
            "zero stale results across the whole grid",
            all(r["stale"] == 0 for r in result.rows),
            "",
        ),
    ]


def _check_extH(result: FigureResult, _figure: Figure) -> list[Check]:
    curves = sorted({r["curve"] for r in result.rows})
    classes = sorted({r["query_class"] for r in result.rows})
    by = {(r["curve"], r["query_class"]): r for r in result.rows}
    families_ok = curves == ["gray", "hilbert", "onion", "zorder"] and all(
        (c, q) in by for c in curves for q in classes
    )
    matches_identical = all(
        len({by[(c, q)]["matches"] for c in curves}) == 1 for q in classes
    )
    cluster_ladder = all(
        by[("hilbert", q)]["mean_clusters"]
        <= by[("onion", q)]["mean_clusters"] + 1e-9
        <= by[("zorder", q)]["mean_clusters"] + 2e-9
        for q in classes
    )
    one_selected = all(
        sum(1 for c in curves if by[(c, q)]["selected"]) == 1 for q in classes
    )
    def _selected(q: str) -> str:
        return next(c for c in curves if by[(c, q)]["selected"])

    selected_cheapest = all(
        by[(_selected(q), q)]["mean_clusters"]
        <= min(by[(c, q)]["mean_clusters"] for c in curves) * 1.01 + 1e-9
        for q in classes
    )
    return [
        ("all four curve families reported per query class", families_ok, ""),
        (
            "match counts identical across curves (mapping is cost-only)",
            matches_identical,
            "",
        ),
        (
            "cluster ladder hilbert <= onion <= zorder in every class",
            cluster_ladder,
            "",
        ),
        ("exactly one adaptively selected family per class", one_selected, ""),
        (
            "selector picks the cluster-cheapest family",
            selected_cheapest,
            "",
        ),
        (
            "fewer clusters is fewer peers: Hilbert <= Z-order processing nodes on Q1",
            by[("hilbert", "Q1")]["processing_nodes"]
            <= by[("zorder", "Q1")]["processing_nodes"],
            f"{by[('hilbert', 'Q1')]['processing_nodes']} vs "
            f"{by[('zorder', 'Q1')]['processing_nodes']}",
        ),
    ]


SHAPE_CHECKS: dict[str, Callable[[FigureResult, Figure], list[Check]]] = {
    "fig09": _check_fig09,
    "fig10": _check_snapshot,
    "fig11": _check_fig11,
    "fig12": _check_fig12,
    "fig13": _check_snapshot,
    "fig14": _check_fig14,
    "fig15": _check_fig15,
    "fig16": _check_snapshot,
    "fig17": _check_fig17,
    "fig18": _check_fig18,
    "fig19": _check_fig19,
    "extA": _check_extA,
    "extB": _check_extB,
    "extC": _check_extC,
    "extD": _check_extD,
    "extE": _check_extE,
    "extF": _check_extF,
    "extG": _check_extG,
    "extH": _check_extH,
}

def generate_report(
    scale: str = "small",
    figures: list[str] | None = None,
    profile: bool = False,
) -> str:
    """Run the selected figures and return the markdown report.

    With ``profile=True`` the hot SFC/engine phases are timed while the
    figures run (see :mod:`repro.obs.profile`) and a closing "Profile"
    section reports per-phase call counts and wall time.
    """
    from repro.obs import metrics as obs_metrics
    from repro.obs import profile as obs_profile

    names = figures if figures is not None else sorted(FIGURES)

    # One result per figure and run, shared by the cross-figure checks and
    # by a snapshot, which cuts the run's own sweep instead of repeating it.
    @functools.cache
    def figure(name: str) -> FigureResult:
        of = figure_row(name).of
        if of is not None:
            return run_figure(name, scale=scale, sweep=figure(of))
        return run_figure(name, scale=scale)

    lines = [
        f"# Experiment report (scale = {scale})",
        "",
        "Generated by `python -m repro report`. For each reproduced figure:",
        "the paper's claim, the measured table, and automated shape checks.",
        "",
    ]
    profiler = obs_profile.enable_profiling() if profile else None
    with obs_metrics.collecting() as registry:
        for name in names:
            start = time.time()
            result = figure(name)
            lines.append(f"## {name} — {result.title}")
            lines.append("")
            lines.append(f"*Paper:* {figure_row(name).claim}")
            lines.append("")
            checks = SHAPE_CHECKS[name](result, figure)
            elapsed = time.time() - start
            for label, ok, detail in checks:
                mark = "PASS" if ok else "FAIL"
                suffix = f" ({detail})" if detail else ""
                lines.append(f"- [{mark}] {label}{suffix}")
            lines.append("")
            if name in ("fig18", "fig19"):
                for note in result.notes:
                    lines.append(f"    {note}")
            else:
                lines.append("```")
                lines.append(_condensed_table(result))
                lines.append("```")
            lines.append("")
            lines.append(f"_(ran in {elapsed:.1f}s)_")
            lines.append("")
        counters = registry.snapshot()["counters"]
    lines.append("## Cache hit rates")
    lines.append("")
    lines.append(
        "Plan- and result-cache effectiveness across every figure above "
        "(process-wide counters; see `docs/performance.md`)."
    )
    lines.append("")
    for label, prefix in (("plan cache", "plan_cache"), ("result cache", "result_cache")):
        hits = counters.get(f"{prefix}.hits", 0)
        lookups = hits + counters.get(f"{prefix}.misses", 0)
        if lookups == 0:
            lines.append(f"- {label}: off / no lookups")
        else:
            lines.append(
                f"- {label}: {hits}/{lookups} lookups hit "
                f"({hits / lookups:.1%})"
            )
    saved = counters.get("result_cache.messages_saved", 0)
    if saved:
        lines.append(f"- result cache messages saved: {saved}")
    lines.append("")
    if profiler is not None:
        obs_profile.disable_profiling()
        lines.append("## Profile")
        lines.append("")
        lines.append("```")
        lines.append(profiler.to_text())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def _condensed_table(result: FigureResult) -> str:
    """The figure's table, trimmed to the most informative rows."""
    rows = result.rows
    if "nodes" in result.columns and len({r.get("nodes") for r in rows}) > 2:
        largest = max(r["nodes"] for r in rows)
        shown = result.filtered(nodes=largest)
        shown.notes = [f"largest system size only ({largest} nodes)"]
        return shown.to_text()
    return result.to_text()
