"""``repro.config``: the one place a default comes from.

The mechanism is tested here — built-in < environment < active config <
explicit flag, per field, and that an active config never outlives its
scope.  That each consumer *honours* the value it is handed is tested beside
the consumer (``tests/sfc/test_select.py``, ``tests/store/test_registry.py``,
``tests/core/test_result_cache.py``).
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.config import Config, current, using
from repro.errors import ConfigError

BUILT_IN = Config(curve="hilbert", store="local", result_cache=None)


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    monkeypatch.delenv("REPRO_CURVE", raising=False)
    monkeypatch.delenv("REPRO_STORE", raising=False)


class TestLadder:
    def test_built_in_values_and_exactly_three_fields(self):
        assert Config() == Config.from_env() == current() == BUILT_IN
        assert [f.name for f in dataclasses.fields(Config)] == [
            "curve", "store", "result_cache",
        ]

    def test_environment_is_read_at_the_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_CURVE", " onion ")
        assert current() == dataclasses.replace(BUILT_IN, curve="onion")
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        assert current() == Config(curve="onion", store="sqlite")
        monkeypatch.setenv("REPRO_CURVE", "")
        assert current().curve == "hilbert"

    def test_active_config_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CURVE", "onion")
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        with using(Config(curve="gray")) as active:
            # Not merged field by field: the active config is the whole answer.
            assert current() is active and current().store == "local"
        assert current() == Config(curve="onion", store="sqlite")

    @pytest.mark.parametrize(
        "flag,field,value",
        [
            ("--curve", "curve", "zorder"),
            ("--store", "store", "sqlite"),
            ("--result-cache", "result_cache", 16),
        ],
    )
    def test_flag_beats_environment_beats_built_in(self, monkeypatch, flag, field, value):
        monkeypatch.setenv("REPRO_CURVE", "onion")
        seen = []
        monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(current()) or 0)
        assert cli.main(["run", "fig18"]) == 0
        assert cli.main(["run", "fig18", flag, str(value)]) == 0
        from_env = dataclasses.replace(BUILT_IN, curve="onion")
        assert seen == [from_env, dataclasses.replace(from_env, **{field: value})]
        assert current() == from_env


class TestUsing:
    def test_nests_and_restores(self):
        outer, inner = Config(result_cache=2), Config(result_cache=3)
        with using(outer):
            with using(inner):
                assert current() is inner
            assert current() is outer
        assert current() == BUILT_IN

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with using(Config(curve="onion")):
                raise RuntimeError("escapes the scope")
        assert current() == BUILT_IN


class TestValidation:
    @pytest.mark.parametrize("bad", [{"result_cache": 0}, {"result_cache": -2}])
    def test_bounds(self, bad):
        with pytest.raises(ConfigError, match=">= 1"):
            Config(**bad)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Config().curve = "onion"


class TestOnlyOne:
    """Nothing else under ``src/`` reads the environment or keeps a
    process-wide setting: ambient state is ``repro.config`` plus the scoped
    observers of ``repro.obs``.  And everything runs in one process."""

    SRC = Path(repro.__file__).resolve().parent
    GLOBALS_ALLOWED = {
        "config.py": {"_ACTIVE"},
        "obs/metrics.py": {"_REGISTRY"},
        "obs/profile.py": {"_PROFILER"},
    }

    def modules(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield path.relative_to(self.SRC).as_posix(), ast.parse(path.read_text())

    def test_environment_is_read_only_in_config(self):
        readers = [
            name
            for name, tree in self.modules()
            if any(
                isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                for node in ast.walk(tree)
            )
        ]
        assert readers == ["config.py"]

    def test_global_statements_are_the_known_three(self):
        found = {}
        for name, tree in self.modules():
            names = {
                target
                for node in ast.walk(tree)
                if isinstance(node, ast.Global)
                for target in node.names
            }
            if names:
                found[name] = names
        assert found == self.GLOBALS_ALLOWED

    def test_nothing_imports_a_process_pool(self):
        def imported(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    yield node.module

        pooled = [
            f"{name}: {module}"
            for name, tree in self.modules()
            for module in imported(tree)
            if module.split(".")[0] in ("multiprocessing", "concurrent")
        ]
        assert pooled == []
