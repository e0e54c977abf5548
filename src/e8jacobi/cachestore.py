"""Versioned on-disk cache: one SQLite database per cache root.

Layout: <root>/<schema-version>/cache.sqlite, with one table
``entries(id TEXT PRIMARY KEY, payload TEXT)`` whose payload is the entry's
JSON text with sorted keys.  Each `store` is one committed transaction in
write-ahead-log mode with synchronous=NORMAL: readers in other processes
never see a partial row, and a committed row survives a killed process.

A store keeps one connection, opened on first use.  Before each use it
compares the database file's identity, size and modification time with what
it saw after its own last use; a file replaced or rewritten in between is
reopened, so a stale connection never serves it.  A database that cannot be
read (garbage, truncated, locked beyond the timeout) is a miss, and `store`
replaces a file that is not a database.
"""
from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path

SCHEMA_VERSION = "1"
_DB_NAME = "cache.sqlite"
_TIMEOUT_S = 5.0     # how long an operation waits for another process's lock
_CACHE_KIB = 64      # SQLite page cache; the default 2 MiB shows in peak RSS


def _stamp(path: Path):
    """(device, inode, size, mtime) of the database file, None if it is absent."""
    try:
        st = path.stat()
    except OSError:
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


class CacheStore:
    def __init__(self, root: str | os.PathLike | None):
        self.root = Path(root) if root is not None else None
        self._db = self.root / SCHEMA_VERSION / _DB_NAME if self.enabled else None
        self._conn: sqlite3.Connection | None = None
        self._seen = None    # `_stamp` of the database after this store's last use

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, entry_id: str) -> Path:
        """The database file, which holds `entry_id` along with every other entry."""
        assert self._db is not None
        return self._db

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass  # the file under it is broken; nothing is left to save
            self._conn = None

    def _connection(self, create: bool) -> sqlite3.Connection | None:
        """The open connection, reopened if the file changed under it; None
        for a database that does not exist unless `create` is set."""
        path = self._db
        seen = _stamp(path)
        if self._conn is not None and seen != self._seen:
            self.close()
        if self._conn is None:
            if seen is None and not create:
                return None
            path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(path, timeout=_TIMEOUT_S, isolation_level=None)
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute(f"PRAGMA cache_size=-{_CACHE_KIB}")
                conn.execute("CREATE TABLE IF NOT EXISTS entries "
                             "(id TEXT PRIMARY KEY, payload TEXT)")
            except sqlite3.Error:
                conn.close()
                raise
            self._conn = conn
            self._seen = _stamp(path)
        return self._conn

    def load(self, entry_id: str) -> dict | None:
        """The stored JSON object, or None on a miss.

        A row that is not valid JSON, or not a JSON object, is a miss too, as
        is a database that cannot be read: the caller recomputes and `store`
        overwrites it.
        """
        if not self.enabled:
            return None
        try:
            conn = self._connection(create=False)
            row = conn and conn.execute(
                "SELECT payload FROM entries WHERE id = ?", (entry_id,)).fetchone()
        except sqlite3.Error:
            self.close()
            return None
        if not row:
            return None
        try:
            payload = json.loads(row[0])
        except (TypeError, ValueError):  # JSONDecodeError, UnicodeDecodeError
            return None
        return payload if isinstance(payload, dict) else None

    def store(self, entry_id: str, payload) -> None:
        if not self.enabled:
            return
        text = json.dumps(payload, sort_keys=True)
        try:
            self._insert(entry_id, text)
        except sqlite3.Error as exc:
            self.close()
            # Plain DatabaseError is SQLite's "not a database" or "malformed";
            # its subclasses (locked, read-only, full) leave the file alone.
            if type(exc) is not sqlite3.DatabaseError:
                return
            path = self._db
            for name in (path.name, path.name + "-wal", path.name + "-shm"):
                path.with_name(name).unlink(missing_ok=True)
            try:
                self._insert(entry_id, text)
            except sqlite3.Error:
                self.close()

    def _insert(self, entry_id: str, text: str) -> None:
        self._connection(create=True).execute(
            "INSERT OR REPLACE INTO entries (id, payload) VALUES (?, ?)", (entry_id, text))
        self._seen = _stamp(self._db)
