"""Served workloads: a server subprocess and one load-generator process.

The generator is this process: one event loop, ``workload.connections``
keep-alive connections (at most ``nproc``), so its own cost is not billed to
the server.  Request bytes are encoded before the window and responses are
decoded after it; inside the window the generator only writes, reads and takes
timestamps.

Open loop: request ``k`` of the window is due at ``begin + k / rate`` whatever
happened to earlier ones, and its latency runs from that instant, so a stall
delays — and is charged to — every request behind it.  How late the generator
itself woke up for a request (timer lateness, only measurable when a
connection was free in time) is reported as ``loadgen.lateness_p99_ms``.

Closed loop: each connection sends its next request when the previous reply
has arrived.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from repro.net.server import read_http_response

from layers import layer_metrics, layer_seconds
from oracle import Oracle, cross_check
from workloads import Inputs, Workload, build_system, make_space

__all__ = ["run_served"]

HOST = "127.0.0.1"
TIMER_SLACK_S = 0.002
REPLY_TIMEOUT_S = 120.0
_HERE = Path(__file__).resolve().parent


class ServerProcess:
    """The server subprocess and its one-line command protocol."""

    def __init__(self, inputs_path) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [sys.executable, str(_HERE / "server_main.py"), "--inputs", str(inputs_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.ready = self._read()

    def _read(self) -> dict:
        # A server that stops answering is killed, which ends the read.
        watchdog = threading.Timer(REPLY_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError(
                f"server process ended early (exit code {self.process.wait()})"
            )
        return json.loads(line)

    def command(self, line: str) -> dict:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> dict:
        """Ask the server to close; waits until the process has ended."""
        try:
            final = self.command("stop")
        finally:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
        return final

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


def encode_request(op, port: int) -> bytes:
    body = json.dumps({"query": op[1], "origin": op[2]}).encode()
    head = (
        f"POST /query HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


async def window(connections, payloads, first: int, *, seconds: float | None,
                 rate: float | None) -> dict:
    """Send ``payloads`` from index ``first``; returns the raw observations.

    ``rate`` selects the open loop (``rate * seconds`` requests on a fixed
    schedule); otherwise the loop is closed and runs until ``seconds`` have
    passed (or, with ``seconds=None``, until the payloads run out).
    """
    clock = perf_counter
    observed: list[tuple] = []  # (index, due, sent, done, status, body)
    lateness: list[float] = []
    begin = clock()
    deadline = begin + seconds if seconds is not None else float("inf")
    stop = len(payloads)
    if rate is not None:
        stop = min(stop, first + int(round(rate * seconds)))
    cursor = [first]

    async def worker(reader, writer) -> None:
        while cursor[0] < stop:
            index = cursor[0]
            if rate is None:
                if clock() >= deadline:
                    return
                cursor[0] += 1
                due = clock()
            else:
                cursor[0] += 1
                due = begin + (index - first) / rate
                delay = due - clock()
                if delay > 0:
                    # The loop's timers are a millisecond coarse: sleep short
                    # of the instant, then yield in place until it comes.
                    if delay > TIMER_SLACK_S:
                        await asyncio.sleep(delay - TIMER_SLACK_S)
                    while clock() < due:
                        await asyncio.sleep(0)
                    lateness.append(clock() - due)
            sent = clock()
            writer.write(payloads[index])
            await writer.drain()
            status, _, body = await read_http_response(reader)
            observed.append((index, due, sent, clock(), status, body))

    cpu = time.process_time()
    await asyncio.gather(*(worker(r, w) for r, w in connections))
    wall = clock() - begin
    return {
        "observed": sorted(observed),
        "begin": begin,
        "lateness_s": lateness,
        "wall_s": wall,
        "cpu_share": (time.process_time() - cpu) / wall if wall else 0.0,
    }


async def session(server: ServerProcess, inputs: Inputs, workload: Workload,
                  seconds: float, trace: bool, measure: bool, spawned: float,
                  trace_path) -> dict:
    """Connect, warm up and — on the set-up to be measured — measure."""
    port = server.ready["port"]
    connections = [
        await asyncio.open_connection(HOST, port) for _ in range(workload.connections)
    ]
    try:
        payloads = [encode_request(op, port) for op in inputs.ops[: inputs.warmup]]
        warm = await window(connections, payloads, 0, seconds=None, rate=None)
        out = {
            "setup_s": perf_counter() - spawned,
            "warmup_ok": all(status == 200 for *_, status, _ in warm["observed"]),
        }
        if not measure:
            return out
        payloads += [encode_request(op, port) for op in inputs.ops[inputs.warmup :]]
        rate = workload.rate if workload.loop == "open" else None
        if not trace:
            out["window"] = await window(
                connections, payloads, inputs.warmup, seconds=seconds, rate=rate
            )
            return out
        plain = await window(
            connections, payloads, inputs.warmup, seconds=seconds / 2, rate=rate
        )
        resume = plain["observed"][-1][0] + 1 if plain["observed"] else inputs.warmup
        server.command("trace_on")
        traced = await window(connections, payloads, resume, seconds=seconds / 2, rate=rate)
        report = server.command("trace_off")
        server.command("write " + json.dumps({
            "path": str(trace_path),
            "request_of": match_submits(report["submitted"], traced["observed"], inputs.ops),
        }))
        out.update(window=traced, plain_window=plain, trace_report=report)
        return out
    finally:
        for _, writer in connections:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def match_submits(submitted, observed, ops) -> list[int]:
    """Index in the generated list of each server-side submit, in order.

    The server sees requests in arrival order without their index; requests
    with the same (query, origin) are matched first-sent, first-arrived.
    """
    waiting: dict[tuple, list[int]] = {}
    for index, _, sent, *_ in sorted(observed, key=lambda row: row[2]):
        waiting.setdefault((ops[index][1], ops[index][2]), []).append(index)
    matched = []
    for text, origin in submitted:
        queue = waiting.get((text, origin))
        matched.append(queue.pop(0) if queue else -1)
    return matched


def run_served(inputs: Inputs, workload: Workload, seconds: float, trace: bool,
               out_dir: Path, setups: int) -> dict:
    inputs_path = out_dir / f"{workload.name}.inputs.jsonl"
    trace_path = out_dir / f"{workload.name}.trace.json"
    setup_times = []
    out: dict = {}
    # The window runs on the last set-up but one and the last set-up follows
    # it, so the set-ups of a run are spread over half a minute, not bunched
    # in the few seconds one slow spell of the machine can cover.
    measured = max(setups - 2, 0)
    for attempt in range(setups):
        spawned = perf_counter()
        server = ServerProcess(inputs_path)
        try:
            result = asyncio.run(session(
                server, inputs, workload, seconds, trace, attempt == measured, spawned,
                trace_path,
            ))
            final = server.stop()
        finally:
            server.kill()
        setup_times.append(result["setup_s"])
        if not result["warmup_ok"]:
            raise RuntimeError("a warm-up request was not answered 200")
        if attempt == measured:
            out = result
            out["server"] = {**server.ready, **final}
    out["setup_times_s"] = setup_times
    out["peak_rss_mb"] = out["server"]["peak_rss_mb"]

    oracle = Oracle(make_space(inputs.spec), inputs.keys)
    for key in ("window", "plain_window"):
        if key in out:
            out[key]["requests"] = decode(
                out[key]["observed"], out[key]["begin"], inputs.ops, oracle
            )
    # The twin is built from the same configuration and keys the server read.
    out["spot_checks"] = cross_check(
        build_system(inputs.spec, inputs.keys), oracle,
        [inputs.ops[row["index"]][1] for row in out["window"]["requests"]],
    )
    if trace:
        out["layers"] = traced_layers(out)
    return out


def decode(observed, begin: float, ops, oracle: Oracle) -> list[dict]:
    """Decode and check every response of a window, off the clock."""
    requests = []
    for index, due, sent, done, status, body in observed:
        row = {
            "index": index, "latency_s": done - due, "service_s": done - sent,
            "done_s": done - begin,
            "bytes": len(body), "ok": False, "messages": 0, "processing_nodes": 0,
            "matches": 0,
        }
        if status == 200:
            document = json.loads(body)
            result, stats = document["result"], document["stats"]
            payloads = [match["payload"] for match in result["matches"]]
            expected = oracle.expected(ops[index][1])
            row.update(
                ok=bool(result["complete"])
                and len(payloads) == len(expected)
                and set(payloads) == expected,
                messages=stats["messages"],
                processing_nodes=stats["processing_nodes"],
                matches=len(payloads),
            )
        requests.append(row)
    return requests


def traced_layers(out: dict) -> dict:
    """Per-layer metrics, layer shares and trace checks of a traced run."""
    report = out["trace_report"]
    summary = report["summary"]
    requests = out["window"]["requests"]
    service = sum(row["service_s"] for row in requests)
    metrics = layer_metrics(
        summary,
        report["registry"],
        queries=len(requests),
        writes=0,
        matches=sum(row["matches"] for row in requests),
        transport=report["transport"],
    )
    submit = summary["spans"].get("transport.submit", {"total_s": 0.0})["total_s"]
    n = max(len(requests), 1)
    metrics["server.overhead_ms_per_query"] = (service - submit) * 1e3 / n
    metrics["server.response_bytes_per_query"] = sum(r["bytes"] for r in requests) / n
    seconds = layer_seconds(summary)
    covered = sum(seconds.values())
    metrics["trace.coverage_ratio"] = covered / service if service else 0.0
    shares = {layer: value / service for layer, value in seconds.items()} if service else {}
    # Not under any span: HTTP parse and write, the loopback socket and the
    # generator's own read — ``server.overhead`` minus ``server.encode``.
    shares["net.server"] = shares.get("net.server", 0.0) + 1.0 - metrics["trace.coverage_ratio"]
    shares["unattributed"] = 0.0
    counters = report["registry"].get("counters", {})
    bookkeeping_ok = counters.get("query.messages.total", 0) == sum(
        row["messages"] for row in requests
    )
    return {"metrics": metrics, "shares": shares, "summary": summary,
            "bookkeeping_ok": bookkeeping_ok}
