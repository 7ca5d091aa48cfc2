"""Micro-benchmarks of the hot paths (real timing, multiple rounds).

These are the paths the guides' profiling methodology identified as hot:
bulk Hilbert indexing (vectorized NumPy), Chord routing, cluster
resolution, one engine-sized refinement step, and end-to-end query
execution.  Unlike the figure benchmarks
(single-shot regenerations), these run repeated rounds for stable timing.
"""

import numpy as np
import pytest

from repro import SquidSystem
from repro.sfc import (
    Cell,
    Cluster,
    HilbertCurve,
    Region,
    clusters_at_level,
    refine_cluster,
    resolve_clusters,
)
from repro.sfc.hilbert_vec import hilbert_encode_vec
from repro.overlay.chord import ChordRing
from repro.workloads.documents import DocumentWorkload


@pytest.fixture(scope="module")
def big_ring():
    return ChordRing.with_random_ids(40, 2000, rng=0)


@pytest.fixture(scope="module")
def populated_system():
    workload = DocumentWorkload.generate(2, 20_000, vocabulary_size=2000, bits=20, rng=1)
    system = SquidSystem.create(workload.space, n_nodes=1000, seed=2)
    system.publish_many(workload.keys)
    return system, workload


def test_bulk_hilbert_encode_100k(benchmark):
    rng = np.random.default_rng(3)
    points = rng.integers(0, 1 << 20, size=(100_000, 3))
    out = benchmark(hilbert_encode_vec, points, 3, 20)
    assert out.shape == (100_000,)


def test_scalar_hilbert_encode(benchmark):
    curve = HilbertCurve(3, 20)
    result = benchmark(curve.encode, (123456, 654321, 424242))
    assert curve.decode(result) == (123456, 654321, 424242)


def test_chord_route(benchmark, big_ring):
    ids = big_ring.node_ids()

    def route_batch():
        total = 0
        for i in range(50):
            total += big_ring.route(ids[i % len(ids)], (i * 7919) % big_ring.space).hops
        return total

    hops = benchmark(route_batch)
    assert hops > 0
    assert hops / 50 < 2 * np.log2(len(ids))


def test_chord_bulk_build(benchmark):
    ring = benchmark(ChordRing.with_random_ids, 40, 2000, 7)
    assert len(ring) == 2000


def test_cluster_resolution(benchmark):
    curve = HilbertCurve(2, 12)
    region = Region.from_bounds([(100, 900), (2000, 3500)])
    ranges = benchmark(resolve_clusters, curve, region)
    assert ranges


def test_end_to_end_query(benchmark, populated_system):
    system, workload = populated_system
    query = f"({workload.keys[0][0][:4]}*, *)"

    def run():
        return system.query(query, origin=system.overlay.node_ids()[0], rng=0)

    result = benchmark(run)
    assert result.match_count == len(system.brute_force_matches(query))


def test_bulk_publish_10k(benchmark, populated_system):
    _, workload = populated_system

    def publish():
        system = SquidSystem.create(workload.space, n_nodes=500, seed=9)
        return system.publish_many(workload.keys[:10_000])

    count = benchmark.pedantic(publish, rounds=2, iterations=1)
    assert count == 10_000


def _engine_sized_clusters(curve, region, level, n_cells, want=64):
    """Clusters of exactly ``n_cells`` partial cells cut from a real level.

    The boundary cells of ``region`` at ``level``, in curve order, chunked:
    the shape a node refines per visit (1–10 cells) up to a whole small
    level (64), each with a ``min_index`` just past its first index, as the
    engine passes ``covered + 1``.
    """
    cells = [
        piece
        for cluster in clusters_at_level(curve, region, level)
        for piece in cluster.pieces
        if isinstance(piece, Cell)
    ]
    chunks = [
        Cluster(level=level, pieces=tuple(cells[i : i + n_cells]))
        for i in range(0, len(cells) - n_cells + 1, n_cells)
    ][:want]
    return [(chunk, chunk.min_index(curve) + 1) for chunk in chunks]


@pytest.mark.parametrize("n_cells", [1, 8, 64])
@pytest.mark.parametrize(
    "geometry",
    [
        (HilbertCurve(2, 16), Region.from_bounds([(1234, 51234), (20000, 61000)]), 9),
        (HilbertCurve(3, 8), Region.from_bounds([(13, 201), (40, 230), (7, 180)]), 5),
    ],
    ids=["2d-order16", "3d-order8"],
)
def test_refine_step_engine_sized(benchmark, geometry, n_cells):
    """One ``refine_cluster(..., min_index=…)`` step at engine batch sizes.

    The full-resolution benchmark above never exercises this shape; it is
    what ``sfc.refine_ms_per_query`` is made of.  Reports µs per expanded
    cell (``extra_info``) — the unit of the crossover table in
    ``docs/performance.md`` §2.
    """
    curve, region, level = geometry
    work = _engine_sized_clusters(curve, region, level, n_cells)
    assert work

    def step():
        produced = 0
        for cluster, min_index in work:
            produced += len(refine_cluster(curve, cluster, region, min_index=min_index))
        return produced

    produced = benchmark(step)
    assert produced >= len(work)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        per_cell = benchmark.stats.stats.min / (len(work) * n_cells)
        benchmark.extra_info["us_per_cell"] = round(per_cell * 1e6, 2)
        print(f"\nrefine step {curve.dims}-D x{n_cells}: {per_cell * 1e6:.2f} us/cell")
