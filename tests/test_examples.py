"""Integration tests for the example scripts.

Each example's ``main()`` is imported and run with its scale constants
shrunk, so the demonstrated flows stay exercised by CI without the
full-size runtimes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "guarantee check" in out

    def test_newsgroups(self, capsys):
        load_example("newsgroups").main()
        out = capsys.readouterr().out
        assert "completeness check" in out

    def test_file_sharing_shrunk(self, capsys):
        module = load_example("file_sharing")
        module.N_PEERS = 60
        module.N_DOCS = 800
        module.main()
        out = capsys.readouterr().out
        assert "Squid answers every query completely" in out

    def test_grid_resource_discovery_shrunk(self, capsys):
        module = load_example("grid_resource_discovery")
        module.N_PEERS = 40
        module.N_RESOURCES = 600
        module.main()
        out = capsys.readouterr().out
        assert "range queries returned exactly" in out

    def test_churn_and_recovery(self, capsys):
        load_example("churn_and_recovery").main()
        out = capsys.readouterr().out
        assert "MISSED" not in out

    def test_topologies_shrunk(self, capsys):
        module = load_example("topologies")
        module.N_NODES = 64
        module.LOOKUPS = 40
        module.main()
        out = capsys.readouterr().out
        assert "Chord" in out and "CAN" in out

    def test_tracing_a_query(self, capsys):
        module = load_example("tracing_a_query")
        module.N_PEERS = 32
        module.main()
        out = capsys.readouterr().out
        assert "trace totals == query stats" in out

    def test_attack_and_defense_shrunk(self, capsys):
        module = load_example("attack_and_defense")
        module.N_PEERS = 40
        module.N_DOCS = 400
        module.main()
        out = capsys.readouterr().out
        assert "droppers" in out
