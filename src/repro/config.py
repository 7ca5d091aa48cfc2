"""The one place a default comes from.

Four things have a default that the caller of ``SquidSystem.create(...)`` or
``QueryPool(...)`` may leave unsaid: the curve family, the node-store
backend, the result-cache capacity and the worker count.  Each resolves the
same way — an explicit argument, else the innermost active :class:`Config`
(:func:`using`; the CLI's ``--curve`` / ``--store`` / ``--result-cache`` /
``--workers`` flags build one over :meth:`Config.from_env`), else the
``REPRO_CURVE`` / ``REPRO_STORE`` environment variables read at the call,
else the built-in value:

>>> Config()
Config(curve='hilbert', store='local', result_cache=None, workers=1)
>>> with using(Config(curve="onion", workers=4)):
...     current().curve, current().workers
('onion', 4)

The two names are validated where they are resolved into objects
(:func:`repro.sfc.make_curve`, :func:`repro.store.as_spec`), which raise a
:class:`~repro.errors.ConfigError` listing the registered choices; this
module imports no registry.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError

__all__ = ["Config", "current", "using"]


@dataclass(frozen=True)
class Config:
    """What a system or pool is built with where its caller does not say."""

    #: Curve family name in ``repro.sfc.CURVES``, or ``"auto"``.
    curve: str = "hilbert"
    #: Node-store backend name in ``repro.store.REGISTRY``.
    store: str = "local"
    #: Capacity of the initiator-side result cache; ``None`` attaches none.
    result_cache: int | None = None
    #: Worker processes a query batch is sharded across.
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.result_cache is not None and self.result_cache < 1:
            raise ConfigError(
                f"result cache capacity must be >= 1, got {self.result_cache}"
            )

    @classmethod
    def from_env(cls) -> "Config":
        """The built-in values, overridden by ``REPRO_CURVE`` / ``REPRO_STORE``."""
        return cls(
            curve=os.environ.get("REPRO_CURVE", "").strip() or cls.curve,
            store=os.environ.get("REPRO_STORE", "").strip() or cls.store,
        )


_ACTIVE: Config | None = None


def current() -> Config:
    """The innermost active config, else the environment's, read now."""
    return _ACTIVE if _ACTIVE is not None else Config.from_env()


@contextmanager
def using(config: Config) -> Iterator[Config]:
    """Scope with ``config`` active; restores the previous one on any exit."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, config
    try:
        yield config
    finally:
        _ACTIVE = previous
