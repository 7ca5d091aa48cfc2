#!/usr/bin/env python3
"""Overlay topologies compared: Chord against CAN — and proximity fingers.

The paper builds Squid on Chord and lists "other network topologies" and
"maintenance of geographical locality" as future work.  This example runs
the same lookup workload over Chord and CAN, the overlay of Andrzejak & Xu's
inverse-SFC range system (the paper's reference [1]), and then shows
proximity neighbor selection (PNS) cutting real query latency end-to-end.

Run:  python examples/topologies.py
"""

import numpy as np

from repro import (
    KeywordSpace,
    LatencyModel,
    OptimizedEngine,
    ProximityChordRing,
    SquidSystem,
    WordDimension,
)
from repro.overlay import CanOverlay, ChordRing
from repro.workloads.documents import DocumentWorkload

N_NODES = 256
BITS = 16
LOOKUPS = 200


def mean_hops(overlay, rng):
    ids = overlay.node_ids()
    hops = []
    for _ in range(LOOKUPS):
        source = ids[rng.integers(0, len(ids))]
        key = int(rng.integers(0, overlay.space))
        result = overlay.route(source, key)
        assert result.destination == overlay.owner(key)
        hops.append(result.hops)
    return float(np.mean(hops))


def main() -> None:
    print(f"routing {LOOKUPS} random lookups over {N_NODES}-node overlays\n")

    chord = ChordRing.with_random_ids(BITS, N_NODES, rng=0)
    can = CanOverlay(BITS, can_dims=2)
    can_rng = np.random.default_rng(2)
    for _ in range(N_NODES):
        can.join(can_rng)

    rows = [
        ("Chord (binary fingers)", mean_hops(chord, np.random.default_rng(3)), "O(log N)"),
        ("CAN (2-D zones)", mean_hops(can, np.random.default_rng(5)), "O(sqrt N)"),
    ]
    print(f"{'overlay':28s} {'mean hops':>9s}   asymptotic")
    for name, hops, asym in rows:
        print(f"{name:28s} {hops:9.1f}   {asym}")

    # --- PNS: the same Squid workload, classic vs proximity fingers -----
    print("\nproximity neighbor selection on a 100x100 latency plane:")
    space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=12)
    workload = DocumentWorkload.generate(2, 2000, vocabulary_size=800, bits=12, rng=6)
    base = SquidSystem.create(space, n_nodes=200, seed=7)
    ids = base.overlay.node_ids()
    model = LatencyModel.random(ids, rng=8)
    pns_ring = ProximityChordRing.build_with_model(base.overlay.bits, ids, model=model)
    pns = SquidSystem(space, pns_ring, curve=base.curve)
    base.publish_many(workload.keys)
    pns.publish_many(workload.keys)

    engine = OptimizedEngine(latency_model=model)
    queries = [f"({workload.keys[i][0][:3]}*, *)" for i in (0, 50, 100)]
    classic_time = pns_time = 0.0
    for q in queries:
        classic_time += base.query(q, engine=engine, origin=ids[0], rng=0).stats.completion_time
        pns_time += pns.query(q, engine=engine, origin=ids[0], rng=0).stats.completion_time
    saving = 1 - pns_time / classic_time
    print(f"  query completion time: classic {classic_time:.0f} -> PNS {pns_time:.0f} "
          f"({saving:.0%} saved)")


if __name__ == "__main__":
    main()
