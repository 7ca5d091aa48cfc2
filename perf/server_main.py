"""Server subprocess of the served workloads: public ``QueryServer`` API only.

Started by ``served.py`` as ``python perf/server_main.py --inputs FILE``.  It
reads the configuration and the keys from the inputs file, builds the system,
serves it on an ephemeral port, prints one JSON "ready" line, and then obeys
one-line commands on stdin (each answered with one JSON line on stdout):

``trace_on``   install the span recorder, a metrics registry and the profiler
``trace_off``  remove them; reply with span summary, counters, submit order
``write JSON`` dump the spans (``{"path": ..., "request_of": [...]}``)
``stop``       (or EOF) close the server, reply with peak memory and stats
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path
from time import perf_counter

_STARTED = perf_counter()
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.net.server as server_module  # noqa: E402
from repro.net.server import QueryServer  # noqa: E402
from repro.obs import (  # noqa: E402
    MetricsRegistry,
    disable_profiling,
    enable_profiling,
    set_registry,
)

from inproc import peak_rss_mb  # noqa: E402
from tracing import Recorder  # noqa: E402
from workloads import Inputs, build_system  # noqa: E402


def reply(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


async def serve(system, timings: dict) -> None:
    server = QueryServer(system, host="127.0.0.1", port=0)
    await server.start()
    timings["ready_s"] = perf_counter() - _STARTED
    reply({"ready": True, "port": server.port, "pid": os.getpid(), "timings": timings})
    loop = asyncio.get_running_loop()
    transport = server.transport
    recorder = registry = None
    base = (0, 0)
    trace_began = 0.0
    try:
        while True:
            line = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            command, _, argument = line.partition(" ")
            if command in ("", "stop"):
                break
            if command == "trace_on":
                recorder, registry = Recorder(), MetricsRegistry()
                recorder.system(system, transport.engine)
                recorder.server(server, server_module)
                set_registry(registry)
                enable_profiling(recorder)
                base = (transport.messages_delivered, transport.messages_stale)
                trace_began = perf_counter()
                reply({"ok": True})
            elif command == "trace_off":
                disable_profiling()
                set_registry(None)
                recorder.uninstall()
                reply({
                    "summary": recorder.summary(),
                    "registry": registry.snapshot(),
                    "transport": {
                        "delivered": transport.messages_delivered - base[0],
                        "stale": transport.messages_stale - base[1],
                    },
                    "submitted": recorder.submitted,
                })
            elif command == "write":
                request = json.loads(argument)
                recorder.write(request["path"], trace_began, request["request_of"])
                reply({"ok": True})
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        await server.close()
    reply({"peak_rss_mb": peak_rss_mb(), "stats": server.stats()})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True)
    args = parser.parse_args()
    timings = {"import_s": perf_counter() - _STARTED}
    spec, keys = Inputs.read_system_part(args.inputs)
    timings["read_s"] = perf_counter() - _STARTED - timings["import_s"]
    t0 = perf_counter()
    system = build_system(spec, keys)
    timings["build_s"] = perf_counter() - t0
    asyncio.run(serve(system, timings))


if __name__ == "__main__":
    main()
