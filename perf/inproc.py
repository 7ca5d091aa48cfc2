"""In-process workloads: one caller drives ``SquidSystem`` directly."""

from __future__ import annotations

import gc
import resource
from time import perf_counter

from repro.obs import collecting, profiling

from layers import layer_metrics, layer_seconds
from oracle import Oracle, cross_check
from tracing import Recorder
from workloads import Inputs, Workload, build_system

__all__ = ["run_inproc", "SETUP_REPEATS", "peak_rss_mb"]

#: Set-up is repeated and the least time reported.
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """The most memory this process held resident (Linux ``VmHWM``) — ever, or
    since :func:`forget_peak_rss`."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def forget_peak_rss() -> None:
    """Restart ``VmHWM`` from what is resident now, where the kernel allows:
    generating the inputs built a twin system in this process."""
    try:
        with open("/proc/self/clear_refs", "w") as clear:
            clear.write("5")
    except OSError:
        pass


def apply(system, op):
    """Execute one generated operation; a query returns its result."""
    kind = op[0]
    if kind == "q":
        return system.query(op[1], origin=op[2])
    if kind == "pub":
        return system.publish(op[1], payload=op[2])
    if kind == "unpub":
        if system.unpublish(op[1], payload=op[2]) != 1:
            raise RuntimeError(f"unpublish removed nothing: {op!r}")
        return None
    if kind == "join":
        return system.add_node(op[1])
    return system.remove_node(op[1])


def timed_window(system, ops, start: int, seconds: float, recorder: Recorder | None,
                 rss_at: dict | None = None):
    """Run ops from ``start`` until ``seconds`` have passed.

    Returns ``(records, wall_seconds)``; a record is ``(op index, latency
    seconds, query result or None, seconds from the window's start to the
    op's end)``.  With a recorder every op is a root span.  ``rss_at`` maps an
    op index to ``None``; peak memory is noted there when that op is reached.
    """
    records = []
    clock = perf_counter
    begin = clock()
    deadline = begin + seconds
    index = start
    while index < len(ops) and clock() < deadline:
        op = ops[index]
        if recorder is not None:
            recorder.set_request(index)
            span, token = recorder.begin("op")
        t0 = clock()
        out = apply(system, op)
        t1 = clock()
        if recorder is not None:
            recorder.end(span, token)
        records.append((index, t1 - t0, out if op[0] == "q" else None, t1 - begin))
        if rss_at is not None and index in rss_at:
            rss_at[index] = peak_rss_mb()
        index += 1
    return records, clock() - begin


def verify(inputs: Inputs, space, records) -> tuple[list[bool], Oracle]:
    """Replay the mutation stream on the oracle in lockstep.

    Returns one verdict per record and the oracle in its final state.
    """
    oracle = Oracle(space, inputs.keys)
    result_of = {record[0]: record[2] for record in records}
    last = records[-1][0] if records else -1
    verdicts = []
    for index, op in enumerate(inputs.ops[: last + 1]):
        kind = op[0]
        if kind == "pub":
            oracle.add(op[1], op[2])
        elif kind == "unpub":
            oracle.remove(op[1], op[2])
        if index not in result_of:
            continue  # warm-up
        if kind != "q":
            verdicts.append(True)  # a failed write raises in ``apply``
            continue
        result = result_of[index]
        payloads = [element.payload for element in result.matches]
        expected = oracle.expected(op[1])
        verdicts.append(
            result.complete
            and len(payloads) == len(expected)
            and set(payloads) == expected
        )
    return verdicts, oracle


def set_up(inputs: Inputs):
    """Ring build, bulk publish and warm-up: what ``setup_s`` times."""
    system = build_system(inputs.spec, inputs.keys)
    for op in inputs.ops[: inputs.warmup]:
        apply(system, op)
    return system


def run_inproc(inputs: Inputs, workload: Workload, seconds: float, trace: bool,
               out_dir, setups: int = SETUP_REPEATS) -> dict:
    """Set up ``setups`` times, measure one window (two when tracing).

    The window runs on the last set-up but one and the last set-up follows
    it, so the set-ups of a run are spread over half a minute, not bunched in
    the few seconds one slow spell of the machine can cover.
    """
    measured = max(setups - 2, 0)
    setup_times = []
    out: dict = {}
    for attempt in range(setups):
        system = None
        gc.collect()
        if attempt == measured:
            forget_peak_rss()
        t0 = perf_counter()
        system = set_up(inputs)
        setup_times.append(perf_counter() - t0)
        if attempt == measured:
            out = measure(system, inputs, workload, seconds, trace, out_dir)
    out["setup_times_s"] = setup_times
    return out


def measure(system, inputs: Inputs, workload: Workload, seconds: float, trace: bool,
            out_dir) -> dict:
    ops = inputs.ops
    out: dict = {"server": None}
    # The runner keeps every answer until it has checked it, so its memory
    # grows with the operations a window reaches, which is the machine's
    # doing; the peak is taken where the first pass over the block ends.
    rss_at = {inputs.warmup + inputs.block - 1: None}
    if not trace:
        records, wall = timed_window(system, ops, inputs.warmup, seconds, None, rss_at)
        out.update(records=records, wall_s=wall)
    else:
        # Untraced half first, then the traced half carries on from where it
        # stopped: same system, same stream, so the ratio of the two mean
        # latencies is the tracing overhead.
        plain, plain_wall = timed_window(
            system, ops, inputs.warmup, seconds / 2, None, rss_at
        )
        recorder = Recorder()
        recorder.system(system, system.default_engine)
        resume = plain[-1][0] + 1 if plain else inputs.warmup
        try:
            with collecting() as registry, profiling(recorder):
                records, wall = timed_window(system, ops, resume, seconds / 2, recorder)
        finally:
            recorder.uninstall()
        out.update(
            records=records, wall_s=wall, plain_records=plain, plain_wall_s=plain_wall,
            registry=registry.snapshot(),
        )
        if recorder.spans:
            recorder.write(out_dir / f"{workload.name}.trace.json", recorder.spans[0][1])
    all_records = out.get("plain_records", []) + out["records"]
    verdicts, oracle = verify(inputs, system.space, all_records)
    out["verdicts"] = verdicts[len(all_records) - len(out["records"]):]
    out["plain_verdicts"] = verdicts[: len(all_records) - len(out["records"])]
    out["spot_checks"] = cross_check(
        system, oracle,
        [inputs.ops[record[0]][1] for record in all_records if record[2] is not None],
    )
    out["peak_rss_mb"] = next(iter(rss_at.values())) or peak_rss_mb()
    if trace:
        out["layers"] = traced_layers(out, recorder.summary())
    return out


def traced_layers(out: dict, summary: dict) -> dict:
    """Per-layer metrics, layer shares and trace checks of a traced run."""
    results = [record[2] for record in out["records"] if record[2] is not None]
    executed = [r for r in results if not r.stats.result_cache_hit]
    metrics = layer_metrics(
        summary,
        out["registry"],
        queries=len(results),
        writes=len(out["records"]) - len(results),
        matches=sum(len(r.matches) for r in executed),
    )
    root = summary["spans"].get("op", {"total_s": 0.0, "self_s": 0.0})
    metrics["trace.coverage_ratio"] = (
        1.0 - root["self_s"] / root["total_s"] if root["total_s"] else 0.0
    )
    shares = {
        layer: seconds / root["total_s"]
        for layer, seconds in layer_seconds(summary).items()
    } if root["total_s"] else {}
    shares["unattributed"] = 1.0 - metrics["trace.coverage_ratio"]
    # The engine's message bookkeeping must agree with what the spans saw.
    counters = out["registry"].get("counters", {})
    bookkeeping_ok = counters.get("query.messages.total", 0) == sum(
        r.stats.messages for r in executed
    )
    return {"metrics": metrics, "shares": shares, "summary": summary,
            "bookkeeping_ok": bookkeeping_ok}
