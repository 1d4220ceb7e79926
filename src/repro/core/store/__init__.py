"""Pluggable measurement-store package.

``repro.core.store`` keeps its historical import surface (the package
replaces the old single-module store): :class:`MeasurementStore` is the
SQLite reference engine, and the protocol types live in :mod:`.base`.
New code programs against :class:`StoreBackend` and opens stores with
:func:`open_store`, which selects an engine explicitly, by inspecting
what is on disk, or from the ``REPRO_STORE_BACKEND`` environment
variable (the CI backend matrix's knob).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .base import (
    AGGREGATE_COLUMNS,
    ROUND_COMPLETE,
    ROUND_DEGRADED,
    ROUND_IN_PROGRESS,
    RoundInfo,
    RoundVerification,
    ShardJournalEntry,
    ShardPayload,
    StoreBackend,
    UnsupportedStoreFormat,
    bad_bodies,
    is_interrupted,
    shard_checksum,
)
from .columnar import MANIFEST_NAME, ColumnarStore
from .sqlite import MeasurementStore

__all__ = [
    "ROUND_IN_PROGRESS",
    "ROUND_COMPLETE",
    "ROUND_DEGRADED",
    "AGGREGATE_COLUMNS",
    "BACKENDS",
    "RoundInfo",
    "ShardPayload",
    "ShardJournalEntry",
    "RoundVerification",
    "StoreBackend",
    "MeasurementStore",
    "UnsupportedStoreFormat",
    "ColumnarStore",
    "shard_checksum",
    "bad_bodies",
    "is_interrupted",
    "default_backend",
    "detect_backend",
    "open_store",
]

#: Engines :func:`open_store` can select.
BACKENDS = {
    "sqlite": MeasurementStore,
    "columnar": ColumnarStore,
}


def default_backend() -> str:
    """The backend used for *new* stores when nothing else decides:
    ``REPRO_STORE_BACKEND`` (the CI matrix knob), else sqlite."""
    return os.environ.get("REPRO_STORE_BACKEND", "sqlite")


def detect_backend(path: str) -> str | None:
    """Identify the engine behind an *existing* store path, or None
    when nothing (recognisable) is there: a directory carrying a
    columnar manifest is columnar, any existing file is sqlite, and
    ``:memory:`` is always sqlite."""
    if path == ":memory:":
        return "sqlite"
    target = Path(path)
    if target.is_dir():
        manifest = target / MANIFEST_NAME
        if manifest.is_file():
            try:
                data = json.loads(manifest.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                return None
            if data.get("backend") == ColumnarStore.BACKEND:
                return "columnar"
        return None
    if target.exists():
        return "sqlite"
    return None


def open_store(
    path: str,
    *,
    backend: str | None = None,
    readonly: bool = False,
    **kwargs,
) -> StoreBackend:
    """Open a measurement store, resolving the engine as: explicit
    *backend* argument > what's on disk (:func:`detect_backend`) >
    :func:`default_backend`.  Read-only opens never create files and
    raise the engine's missing-store error (sqlite:
    ``sqlite3.OperationalError``; columnar: ``FileNotFoundError``).  A
    store in an older format raises :class:`UnsupportedStoreFormat` (a
    ``ValueError``) in either mode."""
    resolved = backend or detect_backend(path) or default_backend()
    engine = BACKENDS.get(resolved)
    if engine is None:
        raise ValueError(
            f"unknown store backend {resolved!r}; "
            f"expected one of {sorted(BACKENDS)}"
        )
    if readonly:
        return engine.open_readonly(path, **kwargs)
    return engine(path, **kwargs)
