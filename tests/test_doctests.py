"""Run the doctest examples embedded in module/function docstrings."""

import doctest

import pytest

import repro.config
import repro.core.system
import repro.keywords.query
import repro.util.bits


@pytest.mark.parametrize(
    "module",
    [repro.util.bits, repro.keywords.query, repro.core.system, repro.config],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
