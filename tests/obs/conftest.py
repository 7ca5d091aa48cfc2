"""Shared fixtures for observability tests: a small traced-friendly system."""

import pytest

from repro import KeywordSpace, SquidSystem, WordDimension

DOCS = [
    (("computer", "network"), "doc-0"),
    (("computer", "netbook"), "doc-1"),
    (("computation", "theory"), "doc-2"),
    (("database", "network"), "doc-3"),
    (("compiler", "design"), "doc-4"),
    (("company", "storage"), "doc-5"),
    (("compute", "cluster"), "doc-6"),
]


def build_system(n_nodes=16, seed=7, engine=None, bits=8, curve=None):
    """A small populated 2-D word system (fresh per call: tests mutate it).

    ``curve`` pins the family for tests asserting curve-calibrated costs;
    the default floats with the process default (``REPRO_CURVE``).
    """
    space = KeywordSpace([WordDimension("kw1"), WordDimension("kw2")], bits=bits)
    system = SquidSystem.create(
        space, n_nodes=n_nodes, seed=seed, engine=engine, curve=curve
    )
    for key, payload in DOCS:
        system.publish(key, payload=payload)
    return system


@pytest.fixture
def system():
    return build_system()
