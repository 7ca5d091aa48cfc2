"""The paper's evaluation (Figures 9-19): one table, three experiment shapes.

The evaluation repeats three shapes across keyword-space dimensionalities
and query types:

* a **growth sweep** — a fixed query set against a system growing from 1000
  to 5400 nodes and 2·10^4 to 10^5 keys (Figures 9, 11, 12, 14, 15, 17);
* a **snapshot** — all four metrics for each query at two sizes of one of
  those sweeps (Figures 10, 13, 16);
* the **load distributions** (Figures 18, 19).

:data:`FIGURES` has one :class:`~repro.experiments.runner.FigureRow` per
figure — identifier, title, the paper's claim, default seed and runner; the
checks that hold a run to the claim are
:data:`repro.experiments.report.SHAPE_CHECKS`.

The systems are built the way a deployment would grow (:func:`grow_system`):
a small bootstrap ring, the workload published, then nodes joining with the
join-time load-balancing step so peers follow the data distribution (§3.5
is in effect during the §4.1 query-engine experiments).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.loadbalance import grow_with_join_lb, run_neighbor_balancing
from repro.core.system import SquidSystem
from repro.experiments.runner import FigureResult, FigureRow, ScalePreset
from repro.keywords.query import Query
from repro.util.rng import RandomLike, as_generator
from repro.util.stats import coefficient_of_variation, gini_coefficient
from repro.workloads.documents import DocumentWorkload
from repro.workloads.queries import (
    q1_queries,
    q2_queries,
    q3_full_range_queries,
    q3_keyword_range_queries,
)
from repro.workloads.resources import ResourceWorkload

__all__ = [
    "FIGURES",
    "documents",
    "resources",
    "grow_system",
    "growth_sweep",
    "snapshot",
    "sweep_queries",
]

Workload = DocumentWorkload | ResourceWorkload
WorkloadMaker = Callable[[ScalePreset, np.random.Generator], Workload]
QueryMaker = Callable[[Workload], Sequence[Query]]

#: Closing note of a growth sweep.  The range-query figures word theirs
#: differently, and a figure's notes are part of what the golden test pins.
_SWEEP_NOTE = "{count} fixed queries swept over system sizes {sizes}"
_RANGE_SWEEP_NOTE = "{count} fixed range queries swept over sizes {sizes}"

#: Join-time load-balancing samples used throughout the evaluation.
JOIN_SAMPLES = 6

#: Index-space intervals of the key histogram (Figure 18).
INTERVALS = 500

#: Load-balancing schemes compared in Figure 19, each on its own generator.
VARIANTS = ("none", "join", "join+runtime")


def grow_system(
    workload: Workload,
    n_nodes: int,
    n_keys: int,
    gen: np.random.Generator,
    join_lb: bool = True,
) -> SquidSystem:
    """A ring of ``n_nodes`` peers holding the workload's first ``n_keys`` keys.

    With ``join_lb`` the ring starts at a twentieth of its size and grows by
    load-balanced joins after the keys are published; without, all peers
    take uniformly random identifiers up front.
    """
    bootstrap = max(8, n_nodes // 20) if join_lb else n_nodes
    system = SquidSystem.create(workload.space, n_nodes=bootstrap, seed=gen)
    system.publish_many(workload.keys[:n_keys])
    if join_lb:
        grow_with_join_lb(system, n_nodes, samples=JOIN_SAMPLES, rng=gen)
    return system


def sweep_queries(
    system: SquidSystem,
    queries: Sequence[Query],
    seed: RandomLike = 0,
    extra: dict | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Run each query once from a random origin; one metrics row per query.

    Queries execute through :meth:`SquidSystem.query_many`, so sweeps
    parallelize across worker processes (``workers=None`` follows
    :func:`repro.config.current`, which the CLI ``--workers`` flag sets).
    Rows are identical for any worker count.
    """
    batch = system.query_many(queries, workers=workers, seed=seed)
    rows = []
    for i, (query, result) in enumerate(zip(queries, batch.results)):
        row = {"query": str(query), "query_id": f"query{i + 1}", "matches": result.match_count}
        row.update(result.stats.as_row())
        if extra:
            row.update(extra)
        rows.append(row)
    return rows


def documents(dims: int) -> WorkloadMaker:
    """Maker of the ``dims``-D document workload at a scale's largest key count."""
    return lambda scale, gen: DocumentWorkload.generate(
        dims, max(scale.key_counts), vocabulary_size=scale.vocabulary_size, rng=gen
    )


def resources(scale: ScalePreset, gen: np.random.Generator) -> ResourceWorkload:
    """The grid-resource workload at a scale's largest key count."""
    # jitter=0: resources advertise exact standard configurations, so the
    # paper's "(keyword, range, *)" form — an exact attribute value playing
    # the keyword role — has realistic match counts.
    return ResourceWorkload.generate(max(scale.key_counts), jitter=0.0, rng=gen)


def growth_sweep(
    figure: str,
    title: str,
    scale: ScalePreset,
    make_workload: WorkloadMaker,
    make_queries: QueryMaker,
    seed: int = 0,
    note: str = _SWEEP_NOTE,
) -> FigureResult:
    """Run a fixed query set against a system growing through ``scale``.

    One generator, seeded once, draws the workload and then, per size, the
    ring and the query origins — in that order, which the recorded rows
    (``tests/experiments/figures_golden.json``) depend on.
    """
    gen = as_generator(seed)
    workload = make_workload(scale, gen)
    queries = list(make_queries(workload))
    result = FigureResult(
        figure=figure,
        title=title,
        columns=[
            "nodes",
            "keys",
            "query_id",
            "query",
            "matches",
            "routing_nodes",
            "processing_nodes",
            "data_nodes",
            "messages",
            "hops",
        ],
    )
    for n_nodes, n_keys in scale.paired():
        system = grow_system(workload, n_nodes, n_keys, gen)
        result.rows.extend(
            sweep_queries(
                system, queries, seed=gen, extra={"nodes": n_nodes, "keys": n_keys}
            )
        )
    result.notes.append(note.format(count=len(queries), sizes=scale.node_counts))
    return result


def snapshot(
    figure: str,
    title: str,
    of: FigureResult,
    snapshots: Sequence[tuple[int, int]],
) -> FigureResult:
    """Extract the paper's bar-chart snapshots from a completed sweep.

    The paper's Figures 10/13/16 plot all metrics for each query at two
    (nodes, keys) system sizes drawn from the same experiments as the
    growth figures; we do the same rather than re-running.
    """
    result = FigureResult(
        figure=figure,
        title=title,
        columns=[
            "nodes",
            "keys",
            "query_id",
            "routing_nodes",
            "processing_nodes",
            "data_nodes",
            "messages",
            "matches",
        ],
    )
    for n_nodes, n_keys in snapshots:
        for row in of.filtered(nodes=n_nodes, keys=n_keys).rows:
            result.rows.append({c: row.get(c) for c in result.columns})
    result.notes.append(f"snapshots at {list(snapshots)} from {of.figure}")
    return result


# ----------------------------------------------------------------------
# Row runners: ``runner(row, scale, seed) -> FigureResult``
# ----------------------------------------------------------------------
def _sweep(
    make_workload: WorkloadMaker, maker: Callable, count: int, note: str = _SWEEP_NOTE
):
    """A growth-sweep row: ``count`` queries from ``maker``, drawn with ``seed + 1``."""

    def run(row: FigureRow, scale: ScalePreset, seed: int) -> FigureResult:
        return growth_sweep(
            row.id,
            row.title,
            scale,
            make_workload,
            lambda workload: maker(workload, count=count, rng=seed + 1),
            seed=seed,
            note=note,
        )

    return run


def _snapshot(
    row: FigureRow, scale: ScalePreset, seed: int, sweep: FigureResult | None = None
) -> FigureResult:
    """A snapshot row: the third and fifth size of the sweep ``row.of`` names.

    ``sweep`` is that sweep's result at the same scale and seed when the
    caller already has it (``generate_report``); run here otherwise.
    """
    if sweep is None:
        source = FIGURES[row.of]
        sweep = source.runner(source, scale, seed)
    pairs = scale.paired()
    return snapshot(row.id, row.title, sweep, [pairs[2], pairs[4]])


def _key_distribution(row: FigureRow, scale: ScalePreset, seed: int) -> FigureResult:
    """Keys per index-space interval (Figure 18)."""
    n_keys = max(scale.key_counts)
    gen = as_generator(seed)
    workload = documents(3)(scale, gen)
    # Node count is irrelevant to the index-space histogram; a small ring
    # merely hosts the keys.
    system = grow_system(workload, min(scale.node_counts), n_keys, gen, join_lb=False)
    counts = system.key_index_distribution(intervals=INTERVALS)
    result = FigureResult(row.id, row.title, columns=["interval", "keys"])
    for i, count in enumerate(counts):
        result.add_row(interval=i, keys=int(count))
    gini = gini_coefficient(counts.astype(float))
    empty = int(np.sum(counts == 0))
    result.notes.append(
        f"total keys {int(counts.sum())}, peak interval {int(counts.max())}, "
        f"{empty} empty intervals, gini {gini:.3f}"
    )
    return result


def _load_balance(row: FigureRow, scale: ScalePreset, seed: int) -> FigureResult:
    """Per-node key load under each of :data:`VARIANTS` (Figure 19)."""
    n_nodes = scale.node_counts[2]
    n_keys = max(scale.key_counts)
    workload = documents(3)(scale, as_generator(seed))
    result = FigureResult(row.id, row.title, columns=["variant", "node_rank", "load"])
    for offset, variant in enumerate(VARIANTS):
        system = grow_system(
            workload, n_nodes, n_keys, as_generator(seed + offset), join_lb=variant != "none"
        )
        if variant == "join+runtime":
            run_neighbor_balancing(system, rounds=8, threshold=1.3)
        loads = sorted(system.node_loads().values(), reverse=True)
        for rank, load in enumerate(loads):
            result.add_row(variant=variant, node_rank=rank, load=load)
        result.notes.append(
            f"{variant}: nodes {len(loads)}, max {max(loads)}, "
            f"cov {coefficient_of_variation(loads):.3f}, "
            f"gini {gini_coefficient(loads):.3f}"
        )
    return result


# ----------------------------------------------------------------------
# The table.  A claim is what `python -m repro figures` and the report print;
# what a run must show for it to hold is spelled out, and enforced, by the
# row's entry in ``repro.experiments.report.SHAPE_CHECKS``.
# ----------------------------------------------------------------------
FIGURES: dict[str, FigureRow] = {
    row.id: row
    for row in (
        FigureRow(
            "fig09",
            "Q1 queries, 2-D keyword space (matches / processing / data nodes)",
            "Q1 2D: processing/data nodes are a small, sublinearly growing "
            "fraction of the system; data tracks processing; cost not monotone in matches.",
            9,
            _sweep(documents(2), q1_queries, 6),
        ),
        # The paper's snapshots: 3200 nodes / 6·10^4 keys and 5400 / 10^5.
        FigureRow(
            "fig10",
            "All metrics, 2-D keyword space (two system snapshots)",
            "All metrics 2D: routing >> processing ~= data; messages ~ 2x processing.",
            9,
            _snapshot,
            of="fig09",
        ),
        FigureRow(
            "fig11",
            "Q2 queries, 2-D keyword space (matches / data nodes)",
            "Q2 2D: significantly cheaper than Q1 (pruning works with 2 keywords).",
            11,
            _sweep(documents(2), q2_queries, 5),
        ),
        FigureRow(
            "fig12",
            "Q1 queries, 3-D keyword space (matches / processing / data nodes)",
            "Q1 3D: same pattern as 2D, magnitude 2-3x larger.",
            12,
            _sweep(documents(3), q1_queries, 6),
        ),
        # The paper's snapshots: 3000 nodes / 6·10^4 keys and 5300 / 10^5.
        FigureRow(
            "fig13",
            "All metrics, 3-D keyword space (two system snapshots)",
            "All metrics 3D: same shape as fig10, larger magnitude.",
            12,
            _snapshot,
            of="fig12",
        ),
        FigureRow(
            "fig14",
            "Q2 queries, 3-D keyword space (matches / processing / data nodes)",
            "Q2 3D: cheaper than Q1 3D.",
            14,
            _sweep(documents(3), q2_queries, 5),
        ),
        FigureRow(
            "fig15",
            "Q3 (keyword, range, *) queries over grid resources",
            "(keyword, range, *): cost tracks matches/data distribution, not range width.",
            15,
            _sweep(resources, q3_keyword_range_queries, 4, note=_RANGE_SWEEP_NOTE),
        ),
        # The paper's snapshots: 2750 nodes / 6·10^4 keys and 4700 / 10^5.
        FigureRow(
            "fig16",
            "All metrics, range queries (two system snapshots)",
            "All metrics, range queries: same shape as fig10/13.",
            15,
            _snapshot,
            of="fig15",
        ),
        FigureRow(
            "fig17",
            "Q3 (range, range, range) queries over grid resources",
            "(range, range, range): as fig15 with all dimensions ranged.",
            17,
            _sweep(resources, q3_full_range_queries, 5, note=_RANGE_SWEEP_NOTE),
        ),
        FigureRow(
            "fig18",
            f"Key distribution over {INTERVALS} index-space intervals",
            "Raw key distribution over the index space is highly skewed.",
            18,
            _key_distribution,
        ),
        FigureRow(
            "fig19",
            "Per-node key load under the load-balancing schemes",
            "Join-time LB clearly helps; join + runtime LB nearly even.",
            19,
            _load_balance,
        ),
    )
}
