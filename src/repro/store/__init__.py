"""Per-node storage for the distributed index: the pluggable data plane.

Backends implement the :class:`~repro.store.base.NodeStore` contract and are
selected **by name**, mirroring engine/curve selection:

>>> from repro.store import get_store
>>> store = get_store("sqlite")
>>> store.backend_name
'sqlite'

``REGISTRY`` maps names to classes; what ``SquidSystem.create(...)`` uses
when no ``store=`` is given comes from :mod:`repro.config`.
"""

from __future__ import annotations

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
]

#: Name -> backend class.  Third parties may register additional backends.
REGISTRY: dict[str, type[NodeStore]] = {
    "local": LocalStore,
    "sqlite": SQLiteStore,
}

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


def as_spec(store: "str | StoreSpec") -> StoreSpec:
    """Coerce a user-facing ``store=`` argument into a :class:`StoreSpec`.

    A string names a backend with default options; a spec passes through.
    The name is validated here so misconfiguration fails at system
    construction, not at first node join.
    """
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
