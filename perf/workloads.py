"""The four benchmark workloads: constants and seeded input generation.

Everything a run feeds the program is made here.  ``--seed`` drives the
request stream — query pool, origins, arrival order, mutations — over a data
set (corpus and node identifiers) that is a constant of the workload.  The
program under test receives only these inputs plus the explicit configuration
in :class:`Spec` (``curve="hilbert"``, ``store="local"``,
``engine="optimized"``); ambient ``REPRO_*`` defaults are cleared by
``run.py`` before ``repro`` is imported.

Sizes are constants, never derived from a measurement at run time, so two runs
of one seed execute the same operations in the same order.  A run measures for
a fixed number of seconds, so *how many* of the generated operations it
reaches depends on the machine; the cost-count metrics are therefore taken
over a fixed-size prefix of the timed window (``counted``) and repeat exactly.

The timed stream of every workload is one seeded *block* of operations
repeated: operation ``warmup + k`` and operation ``warmup + k + block`` are
the same request (on inproc-churn-mix: the same query at query positions, a
write of the same kind with fresh content at write positions).  A run thus
measures the same work several times over, and ``run.py`` can tell a slow
request from a slow moment of the machine.
"""

from __future__ import annotations

import json
import zlib
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from repro import SquidSystem
from repro.obs import collecting
from repro.workloads import (
    DocumentWorkload,
    ResourceWorkload,
    q1_queries,
    q2_queries,
    q3_full_range_queries,
    zipf_weights,
)
from repro.workloads.documents import storage_space
from repro.workloads.resources import grid_space

from oracle import Oracle

__all__ = ["WORKLOADS", "Workload", "Spec", "Inputs", "generate", "build_system"]


@dataclass(frozen=True)
class Workload:
    """Constants of one workload; ``README.md`` gives the reason for each."""

    name: str
    #: ``"open"`` (fixed arrival rate) and ``"closed"`` (each connection waits
    #: for its reply) are served over HTTP by a server subprocess; ``"inproc"``
    #: is one caller of ``SquidSystem.query``.
    loop: str
    corpus: str  # "doc" (2-D word keys) or "grid" (3-D numeric resources)
    bits: int
    n_nodes: int
    n_keys: int
    #: Capacity of the initiator-side result cache, or False for none.
    result_cache: int | bool
    #: Untimed operations run after the build; part of ``setup_s``.
    warmup: int
    #: Timed queries the exact cost counts are averaged over; 0 means all of
    #: them (the open loop sends a fixed number).
    counted: int
    #: A query answered later than this misses the workload's latency limit.
    limit_ms: float
    #: Open loop: arrivals per second.  Otherwise: how many operations to
    #: generate per measured second — an upper bound on what a run can reach.
    rate: float
    #: Distinct queries in the pool, and how many candidates are drawn per
    #: pool slot for the choice by counted work (see ``pick_by_work``).
    pool: int
    candidates: int
    connections: int = 0
    #: Period of the timed stream in operations; 0: the pool once.
    block: int = 0

    @property
    def served(self) -> bool:
        return self.loop != "inproc"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serve-open-dense",
            loop="open", corpus="doc", bits=16, n_nodes=256,
            n_keys=20_000, result_cache=False, warmup=160, counted=0,
            limit_ms=50.0, rate=60.0, pool=120, candidates=5, connections=2,
        ),
        Workload(
            name="serve-closed-sparse",
            loop="closed", corpus="doc", bits=16, n_nodes=256,
            n_keys=2_000, result_cache=False, warmup=1_000, counted=4_000,
            limit_ms=20.0, rate=4_000.0, pool=600, candidates=2, connections=2,
        ),
        Workload(
            name="inproc-range-broad",
            loop="inproc", corpus="grid", bits=8, n_nodes=1_000,
            n_keys=20_000, result_cache=False, warmup=32, counted=160,
            limit_ms=500.0, rate=150.0, pool=160, candidates=2,
        ),
        Workload(
            name="inproc-churn-mix",
            loop="inproc", corpus="doc", bits=16, n_nodes=1_000,
            n_keys=25_000, result_cache=256, warmup=1_000, counted=2_500,
            limit_ms=100.0, rate=6_000.0, pool=399, candidates=2, block=2_000,
        ),
    )
}

# Pools are chosen by counted work (see ``pick_by_work``); the ladders span
# about the 15th to 85th percentile of what the query generators draw on each
# workload's data set.
# The dense pool (120) fits the 128-entry plan cache; the range pool (160) does
# not, and is visited cyclically, so the LRU never hits.
DENSE_Q1_WORK = (1_900.0, 3_400.0)
DENSE_Q2_WORK = (280.0, 800.0)
# The dense block is the pool once, in seeded order — uniform popularity: no
# cache on this workload is keyed by the query (the plan cache holds the whole
# pool), and under a Zipf law the latency quantiles are set by the two or three
# hottest queries, whose cost no selection can pin to better than 15%.  Skew is
# exercised where a cache depends on it, on inproc-churn-mix.

SPARSE_WORK = (78.0, 140.0)

RANGE_WORK = (2_200.0, 9_500.0)

CHURN_Q1_WORK = (2_050.0, 3_480.0)
CHURN_Q2_WORK = (155.0, 465.0)
#: A publish invalidates a cached Q1 answer with a probability proportional to
#: the answer's size; unbounded, the few hottest queries' sizes (4 to 250
#: matches) decide a run's miss rate and move throughput by 17% between seeds.
CHURN_Q1_MATCHES = (12, 80)
CHURN_ZIPF = 1.0
#: Of every 100 operations 89 are queries, 8 publish, 2 unpublish and 1 is
#: ``add_node`` or ``remove_node`` in turn, at fixed positions: how many writes
#: a window holds is then no matter of chance (70 membership changes drawn at
#: random would differ by 12% between seeds, and each clears ~9 cached answers).
#: The block length is a multiple of 200 — a join and the leave that undoes it.
CHURN_PUBLISH_AT = frozenset({6, 18, 31, 43, 56, 68, 81, 93})
CHURN_UNPUBLISH_AT = frozenset({25, 75})
CHURN_MEMBERSHIP_AT = 50
#: Keys outside the corpus that a seed draws its published keys from.
CHURN_RESERVE = 2_000


@dataclass
class Spec:
    """Explicit configuration of the system under test."""

    corpus: str
    bits: int
    n_nodes: int
    ring_seed: int
    result_cache: int | bool
    curve: str = "hilbert"
    store: str = "local"
    engine: str = "optimized"


@dataclass
class Inputs:
    """Everything one run feeds the program."""

    workload: str
    seed: int
    spec: Spec
    #: Bulk-published in set-up; the payload of ``keys[i]`` is ``i``.
    keys: list[tuple]
    #: ``("q", text, origin)``, ``("pub", key, payload)``,
    #: ``("unpub", key, payload)``, ``("join", id)`` or ``("leave", id)``.
    ops: list[tuple]
    #: The first ``warmup`` ops run untimed, as the last step of set-up.
    warmup: int
    #: Period of the timed stream: op ``warmup + k`` recurs every ``block`` ops.
    block: int
    info: dict[str, Any] = field(default_factory=dict)

    def write(self, path) -> None:
        """One JSON object per line: header, key chunks, then the ops."""
        with open(path, "w") as out:
            header = {
                "workload": self.workload, "seed": self.seed,
                "spec": asdict(self.spec), "warmup": self.warmup, "block": self.block,
                "n_keys": len(self.keys), "n_ops": len(self.ops),
                "info": self.info,
            }
            out.write(json.dumps(header) + "\n")
            for start in range(0, len(self.keys), 5_000):
                chunk = self.keys[start : start + 5_000]
                out.write(json.dumps({"keys": chunk}) + "\n")
            for op in self.ops:
                out.write(json.dumps(op) + "\n")

    @staticmethod
    def read_system_part(path) -> tuple[Spec, list[tuple]]:
        """The configuration and the keys — all the server process needs."""
        keys: list[tuple] = []
        with open(path) as lines:
            header = json.loads(next(lines))
            for line in lines:
                row = json.loads(line)
                if not isinstance(row, dict):
                    break  # first op: the keys are complete
                keys.extend(tuple(key) for key in row["keys"])
        return Spec(**header["spec"]), keys


def make_space(spec: Spec):
    if spec.corpus == "doc":
        return storage_space(2, bits=spec.bits)
    return grid_space(bits=spec.bits)


def build_system(spec: Spec, keys: list[tuple]) -> SquidSystem:
    """Ring build plus bulk publish — the same in server, runner and twin."""
    system = SquidSystem.create(
        make_space(spec),
        n_nodes=spec.n_nodes,
        curve=spec.curve,
        seed=spec.ring_seed,
        engine=spec.engine,
        store=spec.store,
        result_cache=spec.result_cache,
    )
    if keys:
        system.publish_many(keys, payloads=range(len(keys)))
    return system


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
#: The data set is part of a workload's definition, like its sizes: corpus and
#: node identifiers come from this constant, the request stream from ``--seed``.
#: What a query costs is set by how the corpus and the node boundaries fall
#: along the curve, and that distribution is clumpy: between two (corpus, ring)
#: pairs the typical Q1 cost differs by 30% and whole cost bands are empty in
#: one and crowded in the other, so no pool can offer two seeds the same work.
DATA_SEED = 2003


def _streams(seed: int, name: str, count: int):
    """``(ring seed, corpus generator)`` of the workload's fixed data set and
    ``count`` generators for the seed's request stream."""
    tag = zlib.crc32(name.encode())
    ring, corpus = np.random.SeedSequence([DATA_SEED, tag]).spawn(2)
    requests = np.random.SeedSequence([int(seed), tag]).spawn(count)
    return (
        int(ring.generate_state(1)[0]),
        np.random.default_rng(corpus),
        [np.random.default_rng(child) for child in requests],
    )


def _distinct_texts(queries) -> list[str]:
    return list(dict.fromkeys(str(q) for q in queries))


def _scaled(workload: Workload, smoke: bool) -> Workload:
    if not smoke:
        return workload
    return Workload(**{
        **asdict(workload),
        "n_keys": max(workload.n_keys // 5, 400),
        "warmup": max(workload.warmup // 8, 16),
        "counted": max(workload.counted // 50, 20) if workload.counted else 0,
        "pool": max(workload.pool // 8, 12),
        "block": workload.block // 5,
    })


def generate(name: str, seed: int, seconds: float, smoke: bool = False) -> Inputs:
    """Make the inputs of workload ``name`` from ``seed``."""
    workload = _scaled(WORKLOADS[name], smoke)
    n_timed = int(round(workload.rate * seconds))
    maker = {
        "serve-open-dense": _dense,
        "serve-closed-sparse": _sparse,
        "inproc-range-broad": _range_broad,
        "inproc-churn-mix": _churn_mix,
    }[name]
    return maker(workload, seed, n_timed)


def _spec(workload: Workload, ring_seed: int) -> Spec:
    return Spec(
        corpus=workload.corpus, bits=workload.bits, n_nodes=workload.n_nodes,
        ring_seed=ring_seed, result_cache=workload.result_cache,
    )


def _node_ids(system: SquidSystem) -> list[int]:
    return [int(node_id) for node_id in system.overlay.node_ids()]


def query_work(system: SquidSystem, texts: list[str]) -> list[float]:
    """Deterministic work units of each query, counted on ``system``.

    ``elements scanned + 10 * messages + 5 * curve cells refined``: a least-
    squares fit of query time on these counts leaves 9-19% per-query residual
    on all three query classes (an element handed to the match filter costs
    about 3 us), against a raw spread of 40-90%.
    """
    scanned = [0]
    stores = list(system.stores.values())
    for store in stores:
        def counting(ranges, _inner=store.scan_ranges):
            out = list(_inner(ranges))
            scanned[0] += len(out)
            return out

        store.scan_ranges = counting
    origin = system.overlay.node_ids()[0]
    work = []
    try:
        for text in texts:
            scanned[0] = 0
            with collecting() as registry:
                result = system.query(text, origin=origin)
            counters = registry.snapshot()["counters"]
            cells = counters.get("sfc.refine.vec_cells", 0) + counters.get(
                "sfc.refine.scalar_cells", 0
            )
            work.append(scanned[0] + 10.0 * result.stats.messages + 5.0 * cells)
    finally:
        for store in stores:
            del store.scan_ranges
    return work


def pick_by_work(system: SquidSystem, texts: list[str], ladder: tuple[float, float],
                 slots: int, fit: list[float]) -> list[str]:
    """For each target on a geometric ladder, the unused candidate nearest it.

    Query cost varies several-fold between draws, so a pool drawn blindly
    makes one seed's run several times dearer than another's.  Choosing by
    counted work gives every seed the same cost profile, slot by slot.
    ``fit`` receives chosen work over target work, which should be near 1.
    """
    free = sorted(zip(query_work(system, texts), texts))
    targets = np.geomspace(*ladder, slots)
    chosen, total = [], 0.0
    for target in targets:
        at = bisect_left(free, (target, ""))
        near = [k for k in (at - 1, at) if 0 <= k < len(free)]
        work, text = free.pop(min(near, key=lambda k: abs(free[k][0] - target)))
        chosen.append(text)
        total += work
    fit.append(round(total / float(targets.sum()), 4))
    return chosen


def _scatter(ladder: list[str]) -> list[str]:
    """A ladder is sorted by cost; a fixed stride scatters it over the
    positions, so neighbours (and Zipf ranks) mix cheap and costly."""
    n = len(ladder)
    stride = next(k for k in range(n // 3 + 1, n) if np.gcd(k, n) == 1)
    return [ladder[(slot * stride) % n] for slot in range(n)]


def _mixed_pool(twin: SquidSystem, docs: DocumentWorkload, workload: Workload,
                q1_work, q2_work, rng, fit: list[float], q1_matches=None) -> list[str]:
    """Two Q1 for every Q2, each class chosen by work, in a fixed pattern.

    The classes differ several-fold in cost, so an even mix would put the
    median latency in the empty gap between them, where it flips from run to
    run; at two to one the median and the 95th percentile both lie inside the
    Q1 ladder.  ``q1_matches`` keeps only Q1 candidates whose answer size lies
    in the band.
    """
    third = workload.pool // 3
    wanted = workload.candidates * 2 * third
    q1 = _distinct_texts(
        q1_queries(docs, wanted * (4 if q1_matches else 1), rng=rng)
    )
    if q1_matches:
        low, high = q1_matches
        oracle = Oracle(docs.space, docs.keys)
        q1 = [text for text in q1 if low <= len(oracle.expected(text)) <= high][:wanted]
    q2 = _distinct_texts(q2_queries(docs, workload.candidates * third, rng=rng))
    q1 = _scatter(pick_by_work(twin, q1, q1_work, 2 * third, fit))
    q2 = _scatter(pick_by_work(twin, q2, q2_work, third, fit))
    return [
        text for slot in range(third)
        for text in (q1[2 * slot], q2[slot], q1[2 * slot + 1])
    ]


def _tiled(block: list[tuple], warmup: int, n_timed: int) -> list[tuple]:
    """``block`` repeated, phased so that the timed window starts at its head."""
    n = len(block)
    return [block[(k - warmup) % n] for k in range(warmup + n_timed)]


def _dense(workload: Workload, seed: int, n_timed: int) -> Inputs:
    ring_seed, g_corpus, (g_pool, g_arrival, g_origin) = _streams(seed, workload.name, 3)
    docs = DocumentWorkload.generate(2, workload.n_keys, bits=workload.bits, rng=g_corpus)
    spec = _spec(workload, ring_seed)
    twin = build_system(spec, docs.keys)
    ids = _node_ids(twin)
    fit: list[float] = []
    pool_texts = _mixed_pool(
        twin, docs, workload, DENSE_Q1_WORK, DENSE_Q2_WORK, g_pool, fit
    )
    order = g_arrival.permutation(len(pool_texts))
    origins = g_origin.integers(0, len(ids), size=len(pool_texts))
    block = [("q", pool_texts[int(k)], ids[int(o)]) for k, o in zip(order, origins)]
    # The warm-up is longer than the block: it visits every pool query, so the
    # plan cache is full when the window opens.
    ops = _tiled(block, workload.warmup, n_timed)
    return Inputs(workload.name, seed, spec, docs.keys, ops, workload.warmup, len(block),
                  info={"pool": len(block), "pool_work_over_target": fit})


def _sparse(workload: Workload, seed: int, n_timed: int) -> Inputs:
    ring_seed, g_corpus, (g_pool, g_arrival, g_origin) = _streams(seed, workload.name, 3)
    docs = DocumentWorkload.generate(2, workload.n_keys, bits=workload.bits, rng=g_corpus)
    spec = _spec(workload, ring_seed)
    twin = build_system(spec, docs.keys)
    ids = _node_ids(twin)
    drawn = _distinct_texts(
        q2_queries(docs, workload.candidates * workload.pool, rng=g_pool)
    )
    fit: list[float] = []
    pool = pick_by_work(twin, drawn, SPARSE_WORK, workload.pool, fit)
    # Every pool query once per block, in seeded order: 600 distinct queries
    # between two visits of one, so the 128-entry plan cache never hits.
    order = g_arrival.permutation(len(pool))
    origins = g_origin.integers(0, len(ids), size=len(pool))
    block = [("q", pool[int(k)], ids[int(o)]) for k, o in zip(order, origins)]
    ops = _tiled(block, workload.warmup, n_timed)
    return Inputs(workload.name, seed, spec, docs.keys, ops, workload.warmup, len(block),
                  info={"pool": len(pool), "pool_work_over_target": fit})


def _range_broad(workload: Workload, seed: int, n_timed: int) -> Inputs:
    ring_seed, g_corpus, (g_pool, g_origin) = _streams(seed, workload.name, 2)
    grid = ResourceWorkload.generate(workload.n_keys, bits=workload.bits, rng=g_corpus)
    spec = _spec(workload, ring_seed)
    twin = build_system(spec, grid.keys)
    ids = _node_ids(twin)
    drawn = _distinct_texts(
        q3_full_range_queries(grid, workload.candidates * workload.pool, rng=g_pool)
    )
    fit: list[float] = []
    pool = _scatter(pick_by_work(twin, drawn, RANGE_WORK, workload.pool, fit))
    origins = g_origin.integers(0, len(ids), size=len(pool))
    block = [("q", text, ids[int(o)]) for text, o in zip(pool, origins)]
    # Warm-up takes the tail of the block and the timed window starts at its
    # head: cyclic visits to more queries than the plan cache holds never hit.
    ops = _tiled(block, workload.warmup, n_timed)
    return Inputs(workload.name, seed, spec, grid.keys, ops, workload.warmup, len(block),
                  info={"pool": len(pool), "pool_work_over_target": fit})


def _churn_mix(workload: Workload, seed: int, n_timed: int) -> Inputs:
    """One block — query picks, origins, published keys, the nodes that join
    and leave — repeated, so that every repetition invalidates the same cached
    answers and the same requests miss the result cache each time round.

    Within a block the even hundreds add a new node and the following odd ones
    remove it, so the ring is the same at every block's end.  Each publish
    position publishes its own key again with a fresh payload; each unpublish
    position removes the copy one publish position left in the previous block
    (an element of the corpus while there is no such copy yet).  The store
    therefore grows by 60 elements per 1 000 operations.
    """
    ring_seed, g_corpus, (g_pool, g_ops) = _streams(seed, workload.name, 2)
    block = workload.block
    warmup = -(-workload.warmup // 200) * 200  # starts with a join, not a leave
    hundreds = block // 100
    docs = DocumentWorkload.generate(
        2, workload.n_keys + CHURN_RESERVE, bits=workload.bits, rng=g_corpus
    )
    keys, reserve = docs.keys[: workload.n_keys], docs.keys[workload.n_keys :]
    spec = _spec(workload, ring_seed)
    twin = build_system(spec, keys)
    members = _node_ids(twin)
    fit: list[float] = []
    pool = _mixed_pool(
        twin, docs, workload, CHURN_Q1_WORK, CHURN_Q2_WORK, g_pool, fit,
        q1_matches=CHURN_Q1_MATCHES,
    )
    # How often each rank occurs in a block is the Zipf law's expectation
    # (largest remainders), not a sample of it; the seed shuffles the order.
    # The result cache then meets the same number of distinct queries, with
    # the same reuse counts, on every seed: drawn, 292 to 316 distinct queries
    # meet 256 places, and the evictions differ three-fold.
    n_queries = block - hundreds * (
        len(CHURN_PUBLISH_AT) + len(CHURN_UNPUBLISH_AT) + 1
    )
    ideal = zipf_weights(len(pool), CHURN_ZIPF) * n_queries
    counts = np.floor(ideal).astype(int)
    for rank in np.argsort(counts - ideal, kind="stable")[: n_queries - counts.sum()]:
        counts[rank] += 1
    picks = iter(g_ops.permutation(np.repeat(np.arange(len(pool)), counts)))
    origin_of = g_ops.integers(0, len(members), size=block)
    publish_at = [p for p in range(block) if p % 100 in CHURN_PUBLISH_AT]
    unpublish_at = [p for p in range(block) if p % 100 in CHURN_UNPUBLISH_AT]
    query_at = {
        p: next(picks) for p in range(block)
        if p % 100 not in CHURN_PUBLISH_AT | CHURN_UNPUBLISH_AT | {CHURN_MEMBERSHIP_AT}
    }
    key_at = dict(zip(
        publish_at, (reserve[int(k)] for k in g_ops.permutation(len(reserve)))
    ))
    # Which publish position's earlier copy each unpublish position removes.
    undoes = dict(zip(
        unpublish_at, (publish_at[int(k)] for k in g_ops.permutation(len(publish_at)))
    ))
    id_space = 1 << (2 * workload.bits)
    # Node identifiers are part of the fixed data set, the newcomers' too: a
    # join clears the cached answers that overlap the segment it takes over —
    # 3 to 25 of them, depending on where the node lands — and ten seeded
    # landing places moved a block's misses by 20% between seeds.
    newcomers: list[int] = []
    for draw in g_corpus.random(hundreds // 2):
        node_id = int(draw * id_space)
        while node_id in members or node_id in newcomers:
            node_id = (node_id + 1) % id_space
        newcomers.append(node_id)
    corpus_victims = iter(g_ops.permutation(len(keys)))
    next_payload = len(keys)
    previous: dict[int, int] = {}  # publish position -> payload of its last copy
    current: dict[int, int] = {}
    ops: list[tuple] = []
    for number in range(warmup + n_timed):
        position = (number - warmup) % block
        if position == 0:
            previous, current = current, {}
        slot, hundred = position % 100, position // 100
        if position in key_at:
            ops.append(("pub", key_at[position], next_payload))
            current[position] = next_payload
            next_payload += 1
        elif position in undoes:
            if undoes[position] in previous:
                ops.append(("unpub", key_at[undoes[position]], previous[undoes[position]]))
            else:
                payload = int(next(corpus_victims))
                ops.append(("unpub", keys[payload], payload))
        elif slot != CHURN_MEMBERSHIP_AT:
            ops.append(("q", pool[int(query_at[position])], members[int(origin_of[position])]))
        else:
            ops.append(("leave" if hundred % 2 else "join", newcomers[hundred // 2]))
    return Inputs(workload.name, seed, spec, keys, ops, warmup, block,
                  info={"pool": len(pool), "pool_work_over_target": fit})
