"""Process-wide engine configuration."""
from __future__ import annotations

import os
from pathlib import Path
from dataclasses import dataclass, replace
from contextlib import contextmanager

from .cachestore import CacheStore

DEFAULT_TRUNC = 6       # orders q^0 .. q^5
EXTENDED_TRUNC = 10     # orders q^0 .. q^9, for the deep checks


class TruncationError(RuntimeError):
    """A resource limit is too small; the message names the needed one."""


@dataclass(frozen=True)
class EngineConfig:
    truncation: int = DEFAULT_TRUNC
    cache_dir: str | None = os.environ.get("E8JACOBI_CACHE")
    max_shell_norm: int = 16
    fmt: str = "text"


_current = EngineConfig()
_store = CacheStore(None)


def get_config() -> EngineConfig:
    return _current


def set_config(cfg: EngineConfig) -> None:
    global _current
    _current = cfg


def configure(**kwargs) -> EngineConfig:
    set_config(replace(_current, **kwargs))
    return _current


def get_store() -> CacheStore:
    """The store of the configured cache dir.  The process keeps the one last
    asked for, so every command on one dir shares its database connection."""
    global _store
    root = _current.cache_dir
    if _store.root != (Path(root) if root is not None else None):
        _store.close()
        _store = CacheStore(root)
    return _store


@contextmanager
def using(**kwargs):
    old = _current
    try:
        yield configure(**kwargs)
    finally:
        set_config(old)
