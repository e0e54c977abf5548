"""Versioned on-disk JSON cache with atomic writes.

Layout: <root>/<schema-version>/<entry-id>.json.  Writers dump to a temp file
in the same directory and os.replace it into place, so concurrent readers
never observe a partial file.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

SCHEMA_VERSION = "1"


class CacheStore:
    def __init__(self, root: str | os.PathLike | None):
        self.root = Path(root) if root is not None else None

    @property
    def enabled(self) -> bool:
        return self.root is not None

    def _path(self, entry_id: str) -> Path:
        assert self.root is not None
        return self.root / SCHEMA_VERSION / f"{entry_id}.json"

    def load(self, entry_id: str) -> dict | None:
        """The stored JSON object, or None on a miss.

        A file that is not valid JSON, or not a JSON object, is a miss too:
        the caller recomputes and `store` overwrites it.
        """
        if not self.enabled:
            return None
        path = self._path(entry_id)
        if not path.is_file():
            return None
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except ValueError:  # JSONDecodeError, UnicodeDecodeError
            return None
        return payload if isinstance(payload, dict) else None

    def store(self, entry_id: str, payload) -> None:
        if not self.enabled:
            return
        path = self._path(entry_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
