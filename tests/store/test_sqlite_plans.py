"""Every statement ``SQLiteStore`` runs that looks rows up by node and index
searches the ``(node, idx)`` index.

Without table statistics SQLite plans ``WHERE node=? AND idx=?`` as a search
of the primary key ``(node, seq)`` on ``node`` alone: a scan of the node's
whole table per call, once per added element in a bulk insert.  The check
is on the query plan, not on time: the statements are the ones the store
actually executes while it is worked through its read and write paths.
"""

from __future__ import annotations

import re

from repro.store.base import StoredElement
from repro.store.sqlite import SQLiteStore

INDEX = "ix_elements_node_idx"


class _RecordingConnection:
    """Passes everything to the real connection; notes each SQL text run
    through one of its cursors."""

    def __init__(self, conn) -> None:
        self.conn = conn
        self.statements: set[str] = set()

    def cursor(self):
        return _RecordingCursor(self)

    def __getattr__(self, name):
        return getattr(self.conn, name)


class _RecordingCursor:
    def __init__(self, owner: _RecordingConnection) -> None:
        self.owner = owner
        self.cursor = owner.conn.cursor()

    def execute(self, sql, params=()):
        self.owner.statements.add(sql)
        return self.cursor.execute(sql, params)

    def executemany(self, sql, rows):
        self.owner.statements.add(sql)
        return self.cursor.executemany(sql, rows)


def _work_through(store: SQLiteStore) -> None:
    """Writes (new and repeated keys), scans, probes, splits and moves."""
    elements = [
        StoredElement(index=i // 3, key=(f"k{i % 7}", float(i % 5)), payload=i)
        for i in range(300)
    ]
    store.add_sorted_bulk(elements)
    store.add(StoredElement(index=5, key=("k1", 1.0), payload="again"))
    store.scan_range(10, 40)
    store.scan_ranges([(0, 3), (50, 60)])
    store.has_any_in_range(20, 25)
    store.key_count_at(7)
    store.split_point_by_load()
    store.pop_range(80, 90)
    store.indices()


def test_every_node_and_index_lookup_uses_the_index():
    store = SQLiteStore(node_id=1)
    recording = store._conn = _RecordingConnection(store._conn)
    _work_through(store)
    by_index = [
        sql for sql in recording.statements
        if re.search(r"node=\?\s+AND\s+idx", " ".join(sql.split()))
    ]
    # pop_range's SELECT and DELETE, the probe, the range scan, and the
    # key-count lookups of key_count_at and of a buffered insert.
    assert len(by_index) >= 5
    for sql in by_index:
        params = (0,) * sql.count("?")
        plan = recording.conn.execute("EXPLAIN QUERY PLAN " + sql, params).fetchall()
        details = " | ".join(row[-1] for row in plan)
        assert INDEX in details, (sql, details)
    store.close()
