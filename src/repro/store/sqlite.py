"""SQLite-backed persistent backend (registry name ``"sqlite"``).

Each store owns a SQLite table of ``(node, seq, idx, key, payload)`` rows —
``idx`` is the curve index, ``key``/``payload`` are pickled, ``seq`` is the
per-node arrival counter that preserves publish order.  Range scans are
B-tree lookups on the ``(node, idx)`` index; inserts are batched
(``executemany`` every ``batch_size`` appends, or earlier when the buffer's
estimated bytes exceed ``memory_budget_bytes`` — the spill knob).

Placement (``path``):

* ``None`` — a private in-memory database per store (the default; what the
  tier-1 suite runs under ``REPRO_STORE=sqlite``).
* a directory — one database *file* per store inside it, with a unique
  name; the file is removed on :meth:`close`.
* a file path — one *shared* database; stores are distinguished by the
  ``node`` column (the paper ring's node id, or a process-unique ordinal
  when the store was built without one).

Identity stability (contract point 3 in :mod:`repro.store.base`): a row
cache keyed by ``seq`` is primed with the *original* element objects when
the buffer flushes, so scans return the very objects that were published —
not reconstructions — exactly like the in-memory backends.  Setting
``memory_budget_bytes`` bounds the cache too: entries are evicted
least-recently-*scanned* first (LRU, scans refresh recency), so a skewed
access pattern keeps its hot rows resident instead of losing the whole
cache whenever the budget is crossed.  Evicted rows are unpickled on the
next scan into fresh (equal, but not identical) objects, which is the
documented trade-off of running truly out-of-core; hit/miss/eviction
counts are reported via ``stats()``.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sqlite3
import tempfile
from collections import OrderedDict
from typing import Any, Iterator

from repro.errors import StoreError
from repro.store.base import NodeStore, StoredElement, regroup_run

__all__ = ["SQLiteStore"]

#: Fallback node labels for stores created without a node id (shared files).
_ANON_NODE = itertools.count(1 << 62)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS elements (
    node INTEGER NOT NULL,
    seq INTEGER NOT NULL,
    idx INTEGER NOT NULL,
    key BLOB NOT NULL,
    payload BLOB NOT NULL,
    PRIMARY KEY (node, seq)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS ix_elements_node_idx ON elements (node, idx);
"""

#: Every lookup by ``node`` and ``idx`` names the (node, idx) index: without
#: table statistics SQLite plans ``node=? AND idx=?`` as a search of the
#: primary key on ``node`` alone — a scan of the node's whole table per call.
_BY_IDX = "elements INDEXED BY ix_elements_node_idx"


class SQLiteStore(NodeStore):
    """Disk-backed node store with batched inserts and indexed range scans."""

    backend_name = "sqlite"

    def __init__(
        self,
        path: str | None = None,
        node_id: int | None = None,
        batch_size: int = 256,
        memory_budget_bytes: int | None = None,
    ) -> None:
        self._node = int(node_id) if node_id is not None else next(_ANON_NODE)
        self._batch_size = max(1, int(batch_size))
        self._budget = memory_budget_bytes
        self._owned_file: str | None = None
        if path is None:
            self._db_path = ":memory:"
        elif os.path.isdir(path) or str(path).endswith(os.sep):
            os.makedirs(path, exist_ok=True)
            fd, fname = tempfile.mkstemp(
                prefix=f"store-node{self._node}-", suffix=".db", dir=str(path)
            )
            os.close(fd)
            self._db_path = self._owned_file = fname
        else:
            self._db_path = str(path)
        self._conn: sqlite3.Connection | None = sqlite3.connect(self._db_path)
        self._conn.executescript(_SCHEMA)
        # Simulation-grade durability: crash-consistency of the *host*
        # process is not part of the model, so skip fsyncs and keep the
        # journal in memory.
        self._conn.execute("PRAGMA synchronous=OFF")
        self._conn.execute("PRAGMA journal_mode=MEMORY")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._next_seq = self._max_seq() + 1
        self._pending: list[StoredElement] = []
        self._pending_bytes = 0
        #: (index, key) pairs sitting in the buffer that are new to the store.
        self._pending_new_pairs: set[tuple[int, tuple]] = set()
        #: seq -> (element, blob bytes), in least-recently-scanned order.
        self._row_cache: "OrderedDict[int, tuple[StoredElement, int]]" = OrderedDict()
        self._cache_bytes = 0
        self._row_cache_hits = 0
        self._row_cache_misses = 0
        self._row_cache_evictions = 0
        self._key_count = 0
        self._element_count = 0
        if self._db_path != ":memory:":
            self._adopt_existing_rows()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, element: StoredElement) -> None:
        self._buffer(element)
        self._count_added(1)

    def add_sorted_bulk(self, elements: list[StoredElement]) -> None:
        for element in elements:
            self._buffer(element)
        self._flush()
        self._count_added(len(elements))

    def pop_range(self, low: int, high: int) -> list[StoredElement]:
        self._check_range(low, high)
        self._flush()
        moved = list(self._scan_rows(low, high))
        if moved:
            cur = self._cursor()
            seqs = cur.execute(
                f"SELECT seq FROM {_BY_IDX} WHERE node=? AND idx BETWEEN ? AND ?",
                (self._node, low, high),
            ).fetchall()
            cur.execute(
                f"DELETE FROM {_BY_IDX} WHERE node=? AND idx BETWEEN ? AND ?",
                (self._node, low, high),
            )
            self._conn.commit()
            for (seq,) in seqs:
                entry = self._row_cache.pop(seq, None)
                if entry is not None:
                    self._cache_bytes -= entry[1]
            self._element_count -= len(moved)
            self._key_count -= len({(e.index, e.key) for e in moved})
        self._count_moved(len(moved))
        return moved

    def clear(self) -> None:
        self._pending.clear()
        self._pending_bytes = 0
        self._pending_new_pairs.clear()
        self._row_cache.clear()
        self._cache_bytes = 0
        cur = self._cursor()
        cur.execute("DELETE FROM elements WHERE node=?", (self._node,))
        self._conn.commit()
        self._key_count = 0
        self._element_count = 0

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _scan_span(self, low: int, high: int) -> Iterator[StoredElement]:
        self._flush()
        yield from self._scan_rows(low, high)

    def has_any_in_range(self, low: int, high: int) -> bool:
        if low > high:
            return False
        self._flush()
        row = self._cursor().execute(
            f"SELECT 1 FROM {_BY_IDX} WHERE node=? AND idx BETWEEN ? AND ? LIMIT 1",
            (self._node, low, high),
        ).fetchone()
        return row is not None

    def all_elements(self) -> Iterator[StoredElement]:
        self._flush()
        yield from self._scan_rows(None, None)

    def indices(self) -> list[int]:
        self._flush()
        rows = self._cursor().execute(
            "SELECT DISTINCT idx FROM elements WHERE node=? ORDER BY idx",
            (self._node,),
        ).fetchall()
        return [int(r[0]) for r in rows]

    def key_count_at(self, index: int) -> int:
        self._flush()
        rows = self._cursor().execute(
            f"SELECT key FROM {_BY_IDX} WHERE node=? AND idx=?", (self._node, index)
        ).fetchall()
        if len(rows) <= 1:
            return len(rows)
        return len({pickle.loads(r[0]) for r in rows})

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        return self._key_count

    @property
    def element_count(self) -> int:
        return self._element_count

    def memory_bytes(self) -> int:
        """Buffer + row-cache bytes, plus page bytes for in-memory databases."""
        size = self._pending_bytes + self._cache_bytes
        size += len(self._pending) * 72 + len(self._row_cache) * 120
        if self._db_path == ":memory:":
            size += self._page_bytes()
        return int(size)

    def _stats_detail(self) -> dict[str, Any]:
        detail: dict[str, Any] = {
            "pending": len(self._pending),
            "row_cache_entries": len(self._row_cache),
            "row_cache_hits": self._row_cache_hits,
            "row_cache_misses": self._row_cache_misses,
            "row_cache_evictions": self._row_cache_evictions,
            "path": self._db_path,
        }
        if self._db_path != ":memory:":
            detail["disk_bytes"] = self._page_bytes()
        return detail

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush, close the connection; remove the file if this store created it."""
        if self._conn is not None:
            self._flush()
            self._conn.close()
            self._conn = None
        if self._owned_file is not None:
            try:
                os.unlink(self._owned_file)
            except OSError:  # pragma: no cover - already gone
                pass
            self._owned_file = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _cursor(self) -> sqlite3.Cursor:
        if self._conn is None:
            raise StoreError("store is closed")
        return self._conn.cursor()

    def _max_seq(self) -> int:
        row = self._cursor().execute(
            "SELECT MAX(seq) FROM elements WHERE node=?", (self._node,)
        ).fetchone()
        return int(row[0]) if row and row[0] is not None else -1

    def _adopt_existing_rows(self) -> None:
        """Reopening a persistent file: rebuild the counters from the rows."""
        cur = self._cursor()
        (elements,) = cur.execute(
            "SELECT COUNT(*) FROM elements WHERE node=?", (self._node,)
        ).fetchone()
        self._element_count = int(elements)
        if elements:
            (keys,) = cur.execute(
                "SELECT COUNT(*) FROM (SELECT DISTINCT idx, key FROM elements "
                "WHERE node=?)",
                (self._node,),
            ).fetchone()
            self._key_count = int(keys)

    def _buffer(self, element: StoredElement) -> None:
        pair = (element.index, element.key)
        if pair not in self._pending_new_pairs and not self._pair_on_disk(pair):
            self._pending_new_pairs.add(pair)
            self._key_count += 1
        self._pending.append(element)
        self._pending_bytes += 96  # rough slot + tuple-ref estimate; exact
        # sizes are only known at pickle time, in _flush().
        self._element_count += 1
        if len(self._pending) >= self._batch_size or (
            self._budget is not None and self._pending_bytes > self._budget
        ):
            self._flush()

    def _pair_on_disk(self, pair: tuple[int, tuple]) -> bool:
        index, key = pair
        rows = self._cursor().execute(
            f"SELECT key FROM {_BY_IDX} WHERE node=? AND idx=?", (self._node, index)
        ).fetchall()
        return any(pickle.loads(r[0]) == key for r in rows)

    def _flush(self) -> None:
        if not self._pending:
            return
        rows = []
        for element in self._pending:
            seq = self._next_seq
            self._next_seq += 1
            key_blob = pickle.dumps(element.key, protocol=pickle.HIGHEST_PROTOCOL)
            payload_blob = pickle.dumps(
                element.payload, protocol=pickle.HIGHEST_PROTOCOL
            )
            rows.append((self._node, seq, element.index, key_blob, payload_blob))
            self._cache_put(seq, element, len(key_blob) + len(payload_blob))
        cur = self._cursor()
        cur.executemany(
            "INSERT INTO elements (node, seq, idx, key, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            rows,
        )
        self._conn.commit()
        self._pending.clear()
        self._pending_bytes = 0
        self._pending_new_pairs.clear()

    def _cache_put(self, seq: int, element: StoredElement, blob_bytes: int) -> None:
        old = self._row_cache.pop(seq, None)
        if old is not None:
            self._cache_bytes -= old[1]
        self._row_cache[seq] = (element, blob_bytes)
        self._cache_bytes += blob_bytes
        # Out-of-core mode: shed the least-recently-scanned rows until the
        # identity cache fits the budget again; see the module docstring.
        while (
            self._budget is not None
            and self._cache_bytes > self._budget
            and self._row_cache
        ):
            _, (_, dropped_bytes) = self._row_cache.popitem(last=False)
            self._cache_bytes -= dropped_bytes
            self._row_cache_evictions += 1

    def _scan_rows(self, low: int | None, high: int | None) -> Iterator[StoredElement]:
        cur = self._cursor()
        # Materialize the result set: callers interleave scans with writes
        # (possibly on other stores sharing the file), so no read cursor may
        # stay open while the generator is paused.
        if low is None:
            rows = cur.execute(
                "SELECT seq, idx, key, payload FROM elements WHERE node=? "
                "ORDER BY idx, seq",
                (self._node,),
            ).fetchall()
        else:
            rows = cur.execute(
                f"SELECT seq, idx, key, payload FROM {_BY_IDX} WHERE node=? "
                "AND idx BETWEEN ? AND ? ORDER BY idx, seq",
                (self._node, low, high),
            ).fetchall()
        run: list[StoredElement] = []
        run_idx: int | None = None
        for seq, idx, key_blob, payload_blob in rows:
            entry = self._row_cache.get(seq)
            if entry is not None:
                element = entry[0]
                self._row_cache.move_to_end(seq)
                self._row_cache_hits += 1
            else:
                self._row_cache_misses += 1
                element = StoredElement(
                    index=int(idx),
                    key=pickle.loads(key_blob),
                    payload=pickle.loads(payload_blob),
                )
                self._cache_put(seq, element, len(key_blob) + len(payload_blob))
            if idx != run_idx and run:
                yield from regroup_run(run)
                run = []
            run_idx = idx
            run.append(element)
        if run:
            yield from regroup_run(run)

    def _page_bytes(self) -> int:
        cur = self._cursor()
        (pages,) = cur.execute("PRAGMA page_count").fetchone()
        (page_size,) = cur.execute("PRAGMA page_size").fetchone()
        return int(pages) * int(page_size)
