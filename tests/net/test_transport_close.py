"""``AsyncioTransport.close()`` and the guard plane's pending gauge.

Every envelope posted to a node raises that node's gauge, and every one
must come back down: admitted by the engine, or handed back.  Closing the
transport cancels the wires, so what is still queued in an inbox or
travelling on a wire will never arrive — ``close()`` hands each of those
back itself; the cancelled drivers hand back what their reorder buffers
hold as they unwind.
"""

from __future__ import annotations

import asyncio

from repro.net import AsyncioTransport

from tests.net.test_transport import _guarded_system, _pending


def test_close_hands_back_what_is_queued_or_on_a_wire():
    system, guard = _guarded_system()

    async def main():
        transport = await AsyncioTransport(system, per_message_delay=0.02).start()
        tasks = [asyncio.ensure_future(transport.submit("(*, *)")) for _ in range(5)]
        await asyncio.sleep(0.05)
        boxes = transport._inboxes.values()
        assert sum(box.qsize() + (box.wire is not None) for box in boxes)
        await transport.close()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    asyncio.run(asyncio.wait_for(main(), timeout=30))
    assert _pending(system, guard) == {}
    assert guard.stats.abandoned > 0
