"""SQLite-backed record store — the paper's off-memory comparison point.

§5.7 attaches SQLite to ResilientDB through API calls and observes the
execute-thread busy-waiting on every access, costing 94% of throughput.
Here the store is a *real* :mod:`sqlite3` database (so functional behaviour
— persistence across reopen, SQL access — is genuine) while the simulated
cost charged to the execute-thread comes from
:data:`~repro.storage.base.STORAGE_COSTS`.  The
database lives in memory by default so the host machine's disk speed never
leaks into simulated results; tests that need durability pass a path.
"""

from __future__ import annotations

import sqlite3
from typing import Optional

from repro.storage.base import KVStore


class SqliteKVStore(KVStore):
    """Key-value records in a SQLite table."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:"):
        self.path = path
        self._conn = sqlite3.connect(path)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS records (key TEXT PRIMARY KEY, value TEXT)"
        )
        self._conn.commit()
        self.reads = 0
        self.writes = 0

    def read(self, key: str) -> Optional[str]:
        self.reads += 1
        row = self._conn.execute(
            "SELECT value FROM records WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    def write(self, key: str, value: str) -> None:
        self.writes += 1
        self._conn.execute(
            "INSERT INTO records (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )
        self._conn.commit()

    def size(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def preload(self, records) -> None:
        """Bulk-load the initial table without simulated cost."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO records (key, value) VALUES (?, ?)",
            records.items(),
        )
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()
