"""Delivery under faults: one physical message against the fault plane.

The query engines send a sub-query by routing it (or, for a batch, sending
it directly) and charging that first transmission themselves.  On a run
that carries an active :class:`~repro.faults.plane.FaultPlane` the message
then has to survive the plane, and :func:`deliver` is where it does: the
retransmissions with backoff, the failover to a ring successor and the
re-route after a crash, each charged to the run's event sink, all of it
governed by the run's :class:`~repro.faults.retry.RetryPolicy`.  The
engines call it at their three sites — the probe and the batch of a
dispatch, and the redelivery of a sub-query whose processor crashed while
the sub-query was queued — and nowhere else.

A run without a plane never gets here: every message has the identity
outcome ``(dest, dest, None, 0.0)``, and the engines test for the absent
plane once instead of calling in.

Everything this module needs travels on the engine's run — ``plane``,
``retry``, ``sink``, ``origin_id``, ``latency_model`` and
``processing_delay`` — and the system's overlay is passed alongside, so the
package keeps its layering rule: it does not import :mod:`repro.core` at
runtime.  The latency helpers live here too, because a re-route's latency
and a slow peer's processing time are what the plane costs a timed run.
"""

from __future__ import annotations

__all__ = ["deliver", "path_latency", "local_delay"]


def path_latency(model, path: tuple[int, ...]) -> float:
    """Latency of ``path`` under ``model``; 0.0 on an untimed run."""
    if model is None:
        return 0.0
    return model.path_latency(path)


def local_delay(run, node_id: int) -> float:
    """Local processing time at ``node_id`` (the plane's slow peers take longer)."""
    delay = run.processing_delay
    if delay and run.plane is not None:
        delay *= run.plane.slow_factor(node_id)
    return delay


def deliver(
    run,
    overlay,
    sender_id: int,
    dest: int,
    key: int,
    span: int,
    allow_failover: bool = True,
    charge_route: bool = False,
) -> tuple[int, int, int | None, float] | None:
    """Push one physical message through the run's fault plane, fighting
    back per the run's retry policy.

    Returns the *delivery outcome* ``(processor, covered, replica_of,
    time_penalty)`` — ``covered`` being the identifier whose range the
    visit resolves and ``replica_of`` its id when the processor is a
    failover stand-in — or ``None`` when the message is definitively
    lost.  (A run without a plane has the identity outcome
    ``(dest, dest, None, 0.0)`` for every message and never gets here.)

    The *first* transmission must already be charged by the caller (the
    routed probe or the direct batch); retries, failovers, and crash
    re-routes are charged here.  With ``charge_route`` the message
    starts from a timed-out crashed destination: the sender re-resolves
    the owner and the (charged) re-route happens here too; a sender that
    crashed meanwhile leaves the re-route to the run's origin.  Without
    ``allow_failover`` an exhausted destination loses the message: a
    batch's destination was fixed by the probe/reply handshake.
    """
    plane = run.plane
    policy = run.retry
    sink = run.sink
    penalty = 0.0
    total = 0
    if charge_route:
        if policy is None:
            return None
        if sender_id not in overlay.nodes:
            sender_id = run.origin_id
        penalty += policy.wait_for(1, plane.rng)
        dest = overlay.owner(key)
        if dest == sender_id:
            # The sender itself owns the key now: local hand-off.
            return (dest, dest, None, penalty)
        penalty += _reroute(run, overlay, sender_id, dest, key, span)
    primary = dest
    current = dest
    attempts = 0
    budget = policy.budget if policy is not None else 1
    while True:
        total += 1
        attempts += 1
        outcome = plane.transmit(sender_id, current)
        if outcome.crashed:
            # The destination died mid-delivery, taking the message with
            # it.  Time out, then route to whoever owns the key now
            # (with replication, the successor promoted the data).
            sink.dropped()
            if policy is None or total >= budget:
                return None
            penalty += policy.wait_for(attempts, plane.rng)
            if current == primary:
                primary = overlay.owner(key)
                nxt = primary
            elif primary in overlay.nodes:
                # A failover stand-in died while the primary is still
                # unreachable-but-alive: try the next ring successor.
                nxt = overlay.successor_id(primary)
                if nxt == primary:
                    return None
            else:  # pragma: no cover - defensive
                primary = overlay.owner(key)
                nxt = primary
            if nxt == sender_id:
                return (nxt, primary, None if nxt == primary else primary,
                        penalty)
            penalty += _reroute(run, overlay, sender_id, nxt, nxt, span)
            current = nxt
            attempts = 0
            continue
        if outcome.dropped:
            sink.dropped()
            if policy is None or total >= budget:
                return None
            penalty += policy.wait_for(attempts, plane.rng)
            if attempts < policy.max_attempts and not plane.always_drops(
                current
            ):
                # Retransmit to the same destination after backoff.
                sink.sent(span, sender_id, current, "retry")
                continue
            if not (allow_failover and policy.failover):
                return None
            backup = overlay.successor_id(current)
            if backup == current or plane.always_drops(backup):
                return None  # nowhere left to go: the branch dies
            sink.sent(span, sender_id, backup, "failover", (sender_id, backup))
            current = backup
            attempts = 0
            continue
        # Delivered (possibly delayed and/or duplicated).
        penalty += outcome.delay
        if outcome.duplicated:
            # Receivers deduplicate; the spurious copy still cost a send.
            sink.sent(span, sender_id, current, "dup")
        replica_of = primary if current != primary else None
        return (current, primary, replica_of, penalty)


def _reroute(run, overlay, sender_id: int, target: int, key: int, span: int) -> float:
    """A timed-out sender routes the message again, toward ``key``'s
    owner ``target``: one charged, traced retry.  Returns its latency."""
    route = overlay.route(sender_id, key)
    run.sink.sent(span, sender_id, target, "retry", route.path)
    return path_latency(run.latency_model, route.path)
