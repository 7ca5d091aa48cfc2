"""Parallel query execution: worker pools, batch results, system specs.

Public surface for running large query batches against one system with
results that are bit-identical for any worker count.  See
:mod:`repro.exec.pool` for the execution model and
:mod:`repro.exec.spec` for the spawn-mode rebuild path.
"""

from repro.exec.pool import DEFAULT_CHUNK_SIZE, BatchResult, QueryPool
from repro.exec.spec import SystemSpec

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "BatchResult",
    "QueryPool",
    "SystemSpec",
]
