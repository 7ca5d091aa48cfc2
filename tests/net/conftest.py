"""The serving suites fail on anything asyncio could only log.

An exception that escapes a connection handler, a timer callback or a task
nobody awaits does not fail the test that caused it: the event loop's
exception handler logs it on the ``asyncio`` logger and carries on.  This
fixture turns every such record into a failure of the test it happened in.
"""

from __future__ import annotations

import gc
import logging

import pytest


class _Collector(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def asyncio_logged_no_error():
    collector = _Collector()
    logger = logging.getLogger("asyncio")
    logger.addHandler(collector)
    try:
        yield
        gc.collect()  # "Task exception was never retrieved" is logged on collection
    finally:
        logger.removeHandler(collector)
    assert not collector.records, "asyncio logged: " + "; ".join(
        record.getMessage() for record in collector.records
    )
