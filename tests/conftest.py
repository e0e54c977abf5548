"""Shared fixtures: a persistent repo-local expansion cache, warm generators,
and raw access to the rows of a test's cache database."""
import sqlite3
from contextlib import closing
from pathlib import Path

import pytest

from e8jacobi import config
from e8jacobi.cachestore import SCHEMA_VERSION
from e8jacobi.genring import sakai_generators
from e8jacobi.orbitalg import load_tables, save_tables

REPO_CACHE = Path(__file__).resolve().parent.parent / ".cache"


@pytest.fixture(scope="session", autouse=True)
def engine_cache():
    """Point the engine at the repo-local cache so repeat runs stay fast."""
    config.configure(cache_dir=str(REPO_CACHE))
    load_tables()
    yield
    save_tables()


@pytest.fixture(scope="session")
def gens6(engine_cache):
    """All named generator expansions at the default truncation."""
    return sakai_generators(6)


class CacheRows:
    """Raw payload text of single rows in one cache database, read and written
    on a connection of the test's own."""

    def __init__(self, path: Path):
        self.path = path

    def _connect(self):
        return closing(sqlite3.connect(self.path, isolation_level=None))

    def ids(self) -> list[str]:
        with self._connect() as conn:
            return [i for (i,) in conn.execute("SELECT id FROM entries ORDER BY id")]

    def read(self, entry_id: str) -> str | None:
        with self._connect() as conn:
            row = conn.execute("SELECT payload FROM entries WHERE id = ?",
                               (entry_id,)).fetchone()
        return row and row[0]

    def write(self, entry_id: str, text: str) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            conn.execute("CREATE TABLE IF NOT EXISTS entries (id TEXT PRIMARY KEY, payload TEXT)")
            conn.execute("INSERT OR REPLACE INTO entries VALUES (?, ?)", (entry_id, text))


@pytest.fixture
def cache_rows(tmp_path):
    """The rows of the cache database under `tmp_path` used as a cache dir."""
    return CacheRows(tmp_path / SCHEMA_VERSION / "cache.sqlite")
