"""Parallel batch query execution: shard a query list over worker processes.

The paper's evaluation — and any realistic deployment study — runs
thousands of *independent* queries against one fixed system.  This module
turns that embarrassingly parallel shape into throughput:

* the query list is cut into fixed-size **chunks** (the unit of
  distribution); chunking depends only on the list and ``chunk_size``,
  never on the worker count;
* each chunk gets its **own seeded RNG** derived from the root seed via
  ``numpy`` ``SeedSequence(root, spawn_key=(chunk_index,))``, its own
  fresh plan/route/result caches (the result cache is re-spawned with the
  same configuration via
  :meth:`~repro.core.resultcache.ResultCache.spawn_empty`), and its own
  metrics registry — so a chunk's results are a pure function of
  (system state, chunk queries, root seed);
* workers execute chunks and the parent **merges** per-chunk outputs in
  chunk order: per-query :class:`~repro.core.metrics.QueryStats` reduce via
  :meth:`QueryStats.merge`, registries via
  :meth:`~repro.obs.metrics.RegistrySnapshot.merge`.

Together these make a batch **bit-identical for any worker count**: with 1
worker or 16, the same chunks run with the same RNGs against the same
state, and the merge order is fixed.  ``pytest`` asserts this property in
``tests/exec/``.

Process model
-------------
Where the platform supports it the pool uses ``fork``-started workers: the
parent's system is inherited as copy-on-write memory, so nothing is
serialized no matter how large the deployment.  Otherwise (``spawn``-only
platforms, or an explicit ``start_method``) each worker rebuilds an
equivalent system from a pickled :class:`~repro.exec.spec.SystemSpec`.
Workers are forked per :meth:`QueryPool.run` call, so they always observe
the system's current state.  With ``workers <= 1`` (the default) no
processes are created at all — chunks run in-process through the *same*
code path, preserving the determinism contract.

Tracing is per-process state that cannot be merged across workers, so an
attached :class:`~repro.obs.trace.Tracer` is detached for the duration of a
batch (results carry ``trace=None``).

An engine carrying an *active* :class:`~repro.faults.FaultPlane` is likewise
per-process state: the plane's RNG advances with every transmission and its
crash executor mutates the shared system, so draw order — and therefore which
messages fail — depends on how chunks interleave across processes.  Batches
stay deterministic for a *fixed* worker count, but the bit-identical-across-
worker-counts contract above holds only for fault-free engines; run
fault-injection studies with ``workers=1`` (as ``extF`` and the ``chaos``
CLI do).
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.config import current
from repro.core.metrics import QueryResult, QueryStats
from repro.errors import EngineError
from repro.exec.spec import SystemSpec
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import RegistrySnapshot, merge_snapshots
from repro.util.rng import RandomLike, as_generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import SquidSystem

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "BatchResult",
    "QueryPool",
]

#: Queries per chunk (the distribution unit).  Fixed — independent of the
#: worker count — so results are reproducible across pool sizes; large
#: enough that per-chunk cache warm-up is amortized over the chunk.
DEFAULT_CHUNK_SIZE = 32


@dataclass(frozen=True)
class _ChunkTask:
    """One unit of work shipped to a worker (picklable)."""

    chunk_index: int
    queries: tuple
    root_seed: int
    engine: Any = None
    origin: int | None = None
    limit: int | None = None
    priority: Any = None


@dataclass
class BatchResult:
    """Outcome of one batch: per-query results plus merged accounting.

    ``results`` is in input-query order.  ``stats`` is the
    :meth:`QueryStats.merge` reduction of every per-query stats object;
    ``metrics`` is the chunk-ordered merge of the per-chunk registry
    snapshots (``overlay.route_cache.*``, ``plan_cache.*``,
    ``query.messages`` ... everything the instrumented stack reported while
    the batch ran).  All three are bit-identical for any worker count;
    ``elapsed_s`` and ``workers`` describe this particular run.
    """

    results: list[QueryResult]
    stats: QueryStats
    metrics: RegistrySnapshot
    workers: int
    chunk_size: int
    chunk_count: int
    elapsed_s: float = 0.0
    start_method: str = "in-process"
    query_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.query_count = len(self.results)

    def match_counts(self) -> list[int]:
        """Match count per query, in input order."""
        return [r.match_count for r in self.results]

    def total_matches(self) -> int:
        return sum(r.match_count for r in self.results)

    def incomplete_count(self) -> int:
        """Queries that returned ``complete=False`` (unresolved index ranges).

        Always 0 on a fault-free system; under an injected fault plane it
        counts the queries whose results are honest partial answers.
        """
        return sum(1 for r in self.results if not r.complete)


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
#: The system a worker queries: inherited through fork, or rebuilt from a
#: SystemSpec by the spawn initializer.  In the parent process it is bound
#: only for the duration of a fork-pool launch.
_WORKER_SYSTEM: "SquidSystem | None" = None


def _init_spec_worker(spec: SystemSpec) -> None:
    """Spawn-mode initializer: rebuild the system once per worker."""
    global _WORKER_SYSTEM
    _WORKER_SYSTEM = spec.build()


def _chunk_rng(root_seed: int, chunk_index: int) -> np.random.Generator:
    """The chunk's private generator, derived deterministically from the root."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(chunk_index,))
    )


def _execute_chunk(
    system: "SquidSystem", task: _ChunkTask
) -> tuple[int, list[QueryResult], RegistrySnapshot]:
    """Run one chunk in isolation: fresh caches, fresh registry, own RNG.

    Isolation is what makes chunk output independent of *which process*
    (and in what order) executed it: the plan cache and overlay route cache
    are swapped for empty ones so hit patterns restart at the chunk
    boundary, and metrics go to a private registry whose snapshot travels
    back with the results.  The system's own caches/tracer/registry are
    restored afterwards (relevant for the in-process path).
    """
    rng = _chunk_rng(task.root_seed, task.chunk_index)
    saved_plan = system.plan_cache
    saved_result = getattr(system, "result_cache", None)
    saved_tracer = system.tracer
    overlay = system.overlay
    saved_route = getattr(overlay, "route_cache", None)
    if saved_plan is not None:
        system.plan_cache = type(saved_plan)()
    if saved_result is not None:
        system.result_cache = saved_result.spawn_empty()
    system.tracer = None
    if saved_route is not None:
        overlay.route_cache = type(saved_route)(maxsize=saved_route.maxsize)
    try:
        with obs_metrics.collecting() as registry:
            results = [
                system.query(
                    query,
                    engine=task.engine,
                    origin=task.origin,
                    rng=rng,
                    limit=task.limit,
                    priority=task.priority,
                )
                for query in task.queries
            ]
        return task.chunk_index, results, registry.snapshot()
    finally:
        system.plan_cache = saved_plan
        if saved_result is not None:
            system.result_cache = saved_result
        system.tracer = saved_tracer
        if saved_route is not None:
            overlay.route_cache = saved_route


def _run_chunk(task: _ChunkTask) -> tuple[int, list[QueryResult], RegistrySnapshot]:
    """Pool entry point: execute one chunk against the worker's system."""
    assert _WORKER_SYSTEM is not None, "worker started without a system"
    return _execute_chunk(_WORKER_SYSTEM, task)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class QueryPool:
    """Shard batches of queries across worker processes (or in-process).

    Parameters
    ----------
    system:
        The deployment to query.  Not copied at construction; each
        :meth:`run` observes its current state.
    workers:
        Worker processes per run.  ``None`` uses
        :func:`repro.config.current`'s ``workers``; ``1`` executes in-process
        with no ``multiprocessing`` at all.  Results are identical either way.
    chunk_size:
        Queries per distribution unit (default
        :data:`DEFAULT_CHUNK_SIZE`).  Must stay fixed for results to be
        comparable byte-for-byte between runs.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"`` override; default picks
        ``fork`` where available (workers share the system copy-on-write)
        and falls back to ``spawn`` with a :class:`SystemSpec` rebuild.
    """

    def __init__(
        self,
        system: "SquidSystem",
        workers: int | None = None,
        chunk_size: int | None = None,
        start_method: str | None = None,
    ) -> None:
        self.system = system
        self.workers = workers if workers is not None else current().workers
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")
        self.chunk_size = chunk_size if chunk_size is not None else DEFAULT_CHUNK_SIZE
        if self.chunk_size < 1:
            raise EngineError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if start_method is not None and start_method not in mp.get_all_start_methods():
            raise EngineError(
                f"start method {start_method!r} unavailable; "
                f"choose from {mp.get_all_start_methods()}"
            )
        self.start_method = start_method

    # -- internals -------------------------------------------------------
    @staticmethod
    def _root_seed(seed: RandomLike) -> int:
        """Coerce ``seed`` to one integer root for chunk-RNG derivation."""
        if isinstance(seed, (int, np.integer)):
            return int(seed)
        return int(as_generator(seed).integers(0, 2**63 - 1))

    def _make_tasks(
        self,
        queries: Sequence,
        root_seed: int,
        engine: Any,
        origin: int | None,
        limit: int | None,
        priority: Any = None,
    ) -> list[_ChunkTask]:
        return [
            _ChunkTask(
                chunk_index=start // self.chunk_size,
                queries=tuple(queries[start : start + self.chunk_size]),
                root_seed=root_seed,
                engine=engine,
                origin=origin,
                limit=limit,
                priority=priority,
            )
            for start in range(0, len(queries), self.chunk_size)
        ]

    # -- execution -------------------------------------------------------
    def run(
        self,
        queries: Iterable,
        seed: RandomLike = 0,
        engine: Any = None,
        origin: int | None = None,
        limit: int | None = None,
        priority: Any = None,
    ) -> BatchResult:
        """Execute every query; return merged, order-preserving results.

        ``engine``/``origin``/``limit``/``priority`` have
        :meth:`SquidSystem.query` semantics and apply to every query of the
        batch.  Like the fault plane, an *armed*
        :class:`~repro.guard.GuardPlane` is per-process state (backlog
        gauges and token buckets fork with the workers), so guard studies
        should run with ``workers=1``.  If a metrics
        registry is active in the calling process, the batch's merged
        totals are folded into it (:meth:`MetricsRegistry.merge_snapshot`),
        so ``with collecting():`` around a batch reports the same counters
        it would around a serial loop.
        """
        query_list = list(queries)
        root_seed = self._root_seed(seed)
        started = perf_counter()
        if not query_list:
            return BatchResult(
                results=[],
                stats=QueryStats(),
                metrics=RegistrySnapshot(
                    {"counters": {}, "gauges": {}, "histograms": {}}
                ),
                workers=self.workers,
                chunk_size=self.chunk_size,
                chunk_count=0,
                elapsed_s=perf_counter() - started,
            )
        tasks = self._make_tasks(query_list, root_seed, engine, origin, limit, priority)
        n_workers = min(self.workers, len(tasks))
        if n_workers <= 1:
            chunk_outputs = [_execute_chunk(self.system, task) for task in tasks]
            method = "in-process"
        else:
            method = self.start_method or (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
            chunk_outputs = self._run_pooled(tasks, n_workers, method)
        chunk_outputs.sort(key=lambda out: out[0])
        results = [result for _, chunk_results, _ in chunk_outputs for result in chunk_results]
        stats = QueryStats.reduce(r.stats for r in results)
        metrics = merge_snapshots(snap for _, _, snap in chunk_outputs)
        active = obs_metrics.get_registry()
        if active is not None:
            active.merge_snapshot(metrics)
        return BatchResult(
            results=results,
            stats=stats,
            metrics=metrics,
            workers=n_workers,
            chunk_size=self.chunk_size,
            chunk_count=len(tasks),
            elapsed_s=perf_counter() - started,
            start_method=method,
        )

    def _run_pooled(
        self, tasks: list[_ChunkTask], n_workers: int, method: str
    ) -> list[tuple[int, list[QueryResult], RegistrySnapshot]]:
        ctx = mp.get_context(method)
        if method == "fork":
            global _WORKER_SYSTEM
            previous = _WORKER_SYSTEM
            _WORKER_SYSTEM = self.system
            try:
                with ctx.Pool(processes=n_workers) as pool:
                    return pool.map(_run_chunk, tasks, chunksize=1)
            finally:
                _WORKER_SYSTEM = previous
        spec = SystemSpec.from_system(self.system)
        with ctx.Pool(
            processes=n_workers, initializer=_init_spec_worker, initargs=(spec,)
        ) as pool:
            return pool.map(_run_chunk, tasks, chunksize=1)
