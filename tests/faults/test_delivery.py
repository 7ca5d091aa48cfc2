"""The two branches of :func:`repro.faults.delivery.deliver` that the engine
suites do not reach: a crash redelivery in which the sender itself now owns
the key, and a failover stand-in that crashes while the primary is alive.
Beside each, its neighbour: a redelivery whose sender crashed too, and a
stand-in crash that re-routes to the primary's next successor.

Each case pushes one message through a three- or four-node ring by hand,
on a run that carries exactly what delivery reads.
"""

from __future__ import annotations

import pytest

from repro import KeywordSpace, SquidSystem, WordDimension
from repro.core.engine import EngineRun
from repro.faults import FaultConfig, FaultPlane, RetryPolicy
from repro.faults.delivery import deliver

#: No jitter: every wait is the policy's deterministic backoff.
POLICY = RetryPolicy(failover=True, max_jitter=0.0)


def _system() -> SquidSystem:
    space = KeywordSpace([WordDimension("kw")], bits=8)
    return SquidSystem.create(space, n_nodes=3, seed=5)


def _run(system, plane: FaultPlane, origin: int) -> EngineRun:
    run = EngineRun()
    run.origin_id = origin
    run.plane = plane
    run.retry = POLICY
    plane.begin_query(origin)
    return run


def test_a_redelivery_the_sender_now_owns_is_a_local_hand_off():
    system = _system()
    a, b, c = system.overlay.node_ids()
    plane = FaultPlane(FaultConfig(drop_rate=1.0))
    run = _run(system, plane, origin=a)
    # The sub-query for ``b``'s own key was queued at ``b``, which crashed;
    # its sender ``c`` is ``b``'s successor and inherits the key.
    system.fail_node(b)
    assert system.overlay.owner(b) == c
    outcome = deliver(run, system.overlay, c, b, b, span=0, charge_route=True)
    # One timeout, then the sender keeps the work: nothing is transmitted,
    # so the all-dropping plane is never consulted and nothing is charged.
    assert outcome == (c, c, None, POLICY.wait_for(1, plane.rng))
    assert plane.stats.messages == 0
    assert run.stats.messages == 0 and run.stats.retries == 0


def test_a_crashed_sender_leaves_the_redelivery_to_the_origin():
    system = _system()
    a, b, c = system.overlay.node_ids()
    plane = FaultPlane(FaultConfig(drop_rate=1.0))
    run = _run(system, plane, origin=c)
    system.fail_node(b)  # ``c`` now owns ``b``'s key; sender ``a`` is gone too
    system.fail_node(a)
    outcome = deliver(run, system.overlay, a, b, b, span=0, charge_route=True)
    assert outcome == (c, c, None, POLICY.wait_for(1, plane.rng))


def test_a_stand_in_that_crashes_while_the_primary_lives_hands_over():
    system = _system()
    a, b, c = system.overlay.node_ids()
    # ``b`` drops everything; a dropper is checked before a crash, so only
    # the stand-in ``c`` can crash — and at rate 1.0 it does.
    plane = FaultPlane(FaultConfig(crash_rate=1.0), droppers={b})
    plane.attach_system(system)
    run = _run(system, plane, origin=a)
    outcome = deliver(run, system.overlay, a, b, b, span=0)
    assert c not in system.overlay.nodes and b in system.overlay.nodes
    # ``b`` is a known dropper, so the sender fails over at once; after the
    # stand-in crashes, ``b``'s next successor is the sender itself, which
    # serves ``b``'s range as its replica holder.
    waits = POLICY.wait_for(1, plane.rng) + POLICY.wait_for(1, plane.rng)
    assert outcome == (a, b, b, pytest.approx(waits))
    assert plane.stats.messages == 2
    assert plane.stats.crashed_nodes == [c]
    stats = run.stats
    assert (stats.messages, stats.failovers, stats.messages_dropped) == (1, 1, 2)


def test_a_stand_in_crash_on_a_larger_ring_reroutes_to_the_next_successor():
    space = KeywordSpace([WordDimension("kw")], bits=8)
    system = SquidSystem.create(space, n_nodes=4, seed=5)
    a, b, c, d = system.overlay.node_ids()
    plane = FaultPlane(FaultConfig(crash_rate=1.0), droppers={b})
    plane.attach_system(system, min_live=3)
    run = _run(system, plane, origin=a)
    outcome = deliver(run, system.overlay, a, b, b, span=0)
    # ``c`` stands in and crashes; the re-route goes to ``b``'s successor
    # now, ``d``, which the ``min_live`` floor keeps alive.
    assert plane.stats.crashed_nodes == [c]
    waits = POLICY.wait_for(1, plane.rng) + POLICY.wait_for(1, plane.rng)
    assert outcome == (d, b, b, pytest.approx(waits))
    # The dropper's drop and the stand-in's crash each lost a transmission.
    stats = run.stats
    assert (stats.failovers, stats.retries, stats.messages_dropped) == (1, 1, 2)
