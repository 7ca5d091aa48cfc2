"""The store registry: by-name selection, specs, defaults."""

from __future__ import annotations

import importlib
import pickle
import warnings

import pytest

from repro.config import Config, using
from repro.errors import ConfigError
from repro.store import (
    REGISTRY,
    LocalStore,
    SQLiteStore,
    StoreSpec,
    as_spec,
    get_store,
)


def create_system(**kwargs):
    from repro.core.system import SquidSystem
    from repro.keywords import KeywordSpace, WordDimension

    space = KeywordSpace([WordDimension("a"), WordDimension("b")], bits=4)
    return SquidSystem.create(space, n_nodes=4, seed=1, **kwargs)


class TestGetStore:
    def test_registry_names(self):
        assert set(REGISTRY) == {"local", "sqlite"}

    @pytest.mark.parametrize(
        "name,cls",
        [("local", LocalStore), ("sqlite", SQLiteStore)],
    )
    def test_by_name(self, name, cls):
        store = get_store(name)
        assert type(store) is cls
        assert store.backend_name == name
        store.close()

    def test_options_forwarded(self, tmp_path):
        store = get_store("sqlite", path=str(tmp_path), batch_size=7)
        assert store._batch_size == 7
        store.close()

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigError) as exc:
            get_store("redis")
        message = str(exc.value)
        assert "redis" in message
        for name in ("local", "sqlite"):
            assert name in message


class TestDefaults:
    """What a system is built on when no ``store=`` is given (``repro.config``)."""

    def test_builtin_default_is_local(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert create_system().store_spec == StoreSpec("local")

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        assert create_system().store_spec == StoreSpec("sqlite")

    def test_set_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        with using(Config(store="local")):
            assert create_system().store_spec.name == "local"
        assert create_system().store_spec.name == "sqlite"  # env visible again

    def test_set_default_validates(self):
        with using(Config(store="bogus")), pytest.raises(ConfigError, match="bogus"):
            create_system()

    def test_system_create_uses_default(self):
        with using(Config(store="sqlite")):
            system = create_system()
        assert system.store_spec.name == "sqlite"
        assert all(isinstance(s, SQLiteStore) for s in system.stores.values())
        assert create_system(store="local").store_spec.name == "local"


class TestDeletedBackend:
    """``columnar`` is no longer a backend: every way of naming it fails
    like any unknown name, listing the backends that exist."""

    VALID = "['local', 'sqlite']"

    def test_store_argument(self):
        with pytest.raises(ConfigError, match="columnar") as exc:
            create_system(store="columnar")
        assert self.VALID in str(exc.value)

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "columnar")
        with pytest.raises(ConfigError, match="columnar") as exc:
            create_system()
        assert self.VALID in str(exc.value)

    def test_cli_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "fig18", "--store", "columnar"])
        assert exc.value.code == 2
        assert "'local', 'sqlite'" in capsys.readouterr().err


class TestStoreSpec:
    def test_as_spec_coercions(self):
        assert as_spec("sqlite") == StoreSpec("sqlite")
        spec = StoreSpec("sqlite", {"batch_size": 9})
        assert as_spec(spec) is spec

    def test_as_spec_rejects_bad_input(self):
        with pytest.raises(ConfigError):
            as_spec("bogus")
        with pytest.raises(ConfigError):
            as_spec(42)
        with pytest.raises(ConfigError):
            as_spec(StoreSpec("bogus"))

    def test_create_builds_backend_with_options(self, tmp_path):
        spec = StoreSpec("sqlite", {"path": str(tmp_path), "batch_size": 5})
        store = spec.create(node_id=3)
        assert isinstance(store, SQLiteStore)
        assert store._batch_size == 5
        store.close()

    def test_pickle_round_trip(self):
        spec = StoreSpec("sqlite", {"batch_size": 128})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        store = clone.create()
        assert isinstance(store, SQLiteStore)
        assert store._batch_size == 128
        store.close()


class TestDeprecatedImportPath:
    def test_new_paths_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(importlib.import_module("repro.store.memory"))
            store = get_store("local")
            assert isinstance(store, LocalStore)
