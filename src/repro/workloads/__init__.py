"""Workload generation: corpora, documents, grid resources, queries."""

from repro.workloads.corpus import COMMON_STEMS, Vocabulary, zipf_weights
from repro.workloads.documents import DocumentWorkload, storage_space
from repro.workloads.queries import (
    q1_queries,
    q2_queries,
    q3_full_range_queries,
    q3_keyword_range_queries,
)
from repro.workloads.resources import GRID_ATTRIBUTES, ResourceWorkload, grid_space
from repro.workloads.trace import (
    Trace,
    TraceOp,
    replay,
    synthetic_trace,
)

__all__ = [
    "COMMON_STEMS",
    "Vocabulary",
    "zipf_weights",
    "DocumentWorkload",
    "storage_space",
    "ResourceWorkload",
    "grid_space",
    "GRID_ATTRIBUTES",
    "q1_queries",
    "q2_queries",
    "q3_keyword_range_queries",
    "q3_full_range_queries",
    "Trace",
    "TraceOp",
    "replay",
    "synthetic_trace",
]
