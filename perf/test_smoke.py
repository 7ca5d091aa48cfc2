"""Smoke test of the benchmark: ``PYTHONPATH=src python -m pytest perf -q``.

Runs ``perf/run.py --smoke`` (all four workloads, untraced and traced, small
corpora and sub-second windows) and checks that the report names exactly the
workloads and metrics that ``BENCHMARK.json`` declares.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_report_matches_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads((ROOT / "perf" / "out" / "report.json").read_text())
    assert report["claim"] is None
    assert list(report["workloads"]) == [w["name"] for w in declared["workloads"]]
    for name, runs in report["workloads"].items():
        for kind in ("end_to_end", "per_layer"):
            run = runs[kind]
            assert run["correct"] and run["failed"] == 0, (name, kind)
            assert run["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {m: row["unit"] for m, row in run["metrics"].items()}
            assert got == want, (name, kind)
            for metric, row in run["metrics"].items():
                assert isinstance(row["value"], (int, float)), (name, metric)
        for metric in declared["end_to_end"]:
            value = runs["end_to_end"]["metrics"][metric["name"]]["value"]
            assert value > 0, (name, metric["name"])
