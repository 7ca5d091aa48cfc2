"""Per-node storage for the distributed index: the pluggable data plane.

Backends implement the :class:`~repro.store.base.NodeStore` contract and are
selected **by name**, mirroring engine/curve selection:

>>> from repro.store import get_store
>>> store = get_store("sqlite")
>>> store.backend_name
'sqlite'

``REGISTRY`` maps names to classes; the process default (what
``SquidSystem.create(...)`` uses when no ``store=`` is given) resolves as
explicit :func:`set_default_store` call > ``REPRO_STORE`` environment
variable > ``"local"``.
"""

from __future__ import annotations

import os
from typing import Any

from repro.errors import ConfigError
from repro.store.base import NodeStore, StoredElement, StoreSpec, StoreStats
from repro.store.memory import LocalStore
from repro.store.sqlite import SQLiteStore

__all__ = [
    "NodeStore",
    "StoredElement",
    "StoreSpec",
    "StoreStats",
    "LocalStore",
    "SQLiteStore",
    "REGISTRY",
    "get_store",
    "as_spec",
    "get_default_store",
    "set_default_store",
]

#: Name -> backend class.  Third parties may register additional backends.
REGISTRY: dict[str, type[NodeStore]] = {
    "local": LocalStore,
    "sqlite": SQLiteStore,
}

_DEFAULT_STORE: str | None = None


def get_store(name: str, **options: Any) -> NodeStore:
    """Instantiate a store backend by registry name.

    ``options`` are passed to the backend constructor (e.g.
    ``get_store("sqlite", path="/tmp/ring/")``).  Unknown names raise a
    :class:`~repro.errors.ConfigError` listing the valid choices.
    """
    try:
        cls = REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown store backend {name!r}; choose from {sorted(REGISTRY)}"
        ) from None
    return cls(**options)


def get_default_store() -> str:
    """The process-default backend name (see module docstring for resolution)."""
    if _DEFAULT_STORE is not None:
        return _DEFAULT_STORE
    env = os.environ.get("REPRO_STORE", "").strip()
    return env if env else "local"


def set_default_store(name: str | None) -> None:
    """Set (or with ``None`` reset) the process-default backend name.

    This is what the CLI ``--store`` flag calls; it overrides the
    ``REPRO_STORE`` environment variable.
    """
    global _DEFAULT_STORE
    if name is not None and name not in REGISTRY:
        raise ConfigError(
            f"unknown store backend {name!r}; choose from {sorted(REGISTRY)}"
        )
    _DEFAULT_STORE = name


def as_spec(store: "str | StoreSpec | None") -> StoreSpec:
    """Coerce a user-facing ``store=`` argument into a :class:`StoreSpec`.

    ``None`` resolves the process default; a string names a backend with
    default options; a spec passes through.  The name is validated here so
    misconfiguration fails at system construction, not at first node join.
    """
    if store is None:
        store = get_default_store()
    if isinstance(store, StoreSpec):
        spec = store
    elif isinstance(store, str):
        spec = StoreSpec(name=store)
    else:
        raise ConfigError(
            f"store must be a backend name or StoreSpec, got {type(store).__name__}"
        )
    if spec.name not in REGISTRY:
        raise ConfigError(
            f"unknown store backend {spec.name!r}; choose from {sorted(REGISTRY)}"
        )
    return spec
