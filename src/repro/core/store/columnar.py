"""Round-partitioned columnar analytical engine.

The second :class:`~repro.core.store.base.StoreBackend` implementation:
a campaign is a **directory**, partitioned by round, with each shard
stored column-major — the layout analytical reads want (aggregate one
column without deserialising page bodies), in the spirit of
parquet/feather but built on the stdlib only.

Layout::

    campaign.whowas/
      manifest.json              # backend marker, rounds, campaign meta
      replayed.json              # quarantine entry ids marked replayed
      rounds/r00001/
        s00000.json              # one shard, column-major + quarantine
        journal.jsonl            # committed-shard journal (append-only)
        views.json               # materialized read models for the round

Commit protocol
---------------
Every mutation is either an atomic whole-file replace (write to a temp
file, fsync, ``os.replace``) or an fsync'd append to ``journal.jsonl``.
One shard commits in three steps:

1. the shard file is atomically replaced;
2. the round's read models are folded and ``views.json`` atomically
   replaced (skipped when the shard index is already in the views'
   ``folded`` list — that makes the fold idempotent);
3. one line is appended to ``journal.jsonl`` — **the commit point**.

A crash before step 3 leaves an orphan shard file and possibly folded
views; the resumed (deterministic) round rewrites the identical shard
file, skips the already-recorded fold, and appends the journal line.
A torn final journal line (crash mid-append) is ignored on read, which
is exactly the SQLite engine's "rolled back" semantics.
:meth:`verify_round` audits both the shard checksums and the views, so
any violation of the determinism assumption is detectable offline.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ..records import PageFeatures, QuarantineRecord, RoundRecord
from .base import (
    AGGREGATE_COLUMNS,
    COLUMN_NAMES,
    ROUND_COMPLETE,
    ROUND_DEGRADED,
    ROUND_IN_PROGRESS,
    RoundInfo,
    RoundVerification,
    ShardJournalEntry,
    StoreBackend,
    UnsupportedStoreFormat,
    body_digest,
    check_column_names,
    light_row,
    shard_checksum,
    summarize_rows,
)

__all__ = ["ColumnarStore", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"
#: 2 since shard checksums hash the row tuples (body digest for body).
_FORMAT_VERSION = 2

_BODY_INDEX = COLUMN_NAMES.index("body")

#: Fields of one round's manifest entry (mirrors RoundInfo).
_ROUND_FIELDS = (
    "round_id", "timestamp", "targets_probed", "responsive_count",
    "degraded", "error_count", "status", "shard_size", "duration_seconds",
)


def _atomic_write_json(path: Path, payload) -> None:
    """Durable whole-file replace: temp file + fsync + os.replace."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"), ensure_ascii=False)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _read_json(path: Path, default):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return default


def _read_jsonl(path: Path) -> list[dict]:
    """Read an append-only journal, tolerating a torn final line (a
    crash mid-append truncates to the last durable entry)."""
    entries: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entries.append(json.loads(line))
                except json.JSONDecodeError:
                    break
    except FileNotFoundError:
        pass
    return entries


def _append_jsonl(path: Path, payload: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, separators=(",", ":"),
                            ensure_ascii=False) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _columns_from_rows(row_dicts: list[dict]) -> dict[str, list]:
    return {
        name: [row[name] for row in row_dicts] for name in COLUMN_NAMES
    }


def _rows_from_columns(columns: dict[str, list]) -> list[dict]:
    count = len(columns["ip"]) if columns.get("ip") else 0
    return [
        {name: columns[name][i] for name in COLUMN_NAMES}
        for i in range(count)
    ]


def _row_tuples(row_dicts: list[dict]) -> list[tuple]:
    """The stored-row tuples :func:`shard_checksum` hashes: each row's
    :data:`COLUMN_NAMES` values, the inline body's digest for the body."""
    return [
        tuple(
            body_digest(row[name]) if name == "body" else row[name]
            for name in COLUMN_NAMES
        )
        for row in row_dicts
    ]


def _column(columns: dict[str, list], name: str) -> list:
    """One projected column of a decoded shard; ``body_digest`` is
    derived from the inline bodies."""
    if name == "body_digest":
        return [body_digest(body) for body in columns["body"]]
    return columns[name]


class ColumnarStore(StoreBackend):
    """Directory-backed columnar store partitioned by round."""

    BACKEND = "columnar"

    def __init__(self, path: str, *, readonly: bool = False):
        super().__init__()
        if path == ":memory:":
            raise ValueError(
                "the columnar backend is directory-backed; ':memory:' "
                "stores are sqlite-only"
            )
        self.path = path
        self.readonly = readonly
        self._root = Path(path)
        self._lock = threading.RLock()
        #: mtime-keyed caches for readers (writers mutate in memory and
        #: persist synchronously, so their caches are authoritative).
        self._cache: dict[Path, tuple[tuple, object]] = {}
        manifest_path = self._root / MANIFEST_NAME
        if readonly:
            if not manifest_path.is_file():
                raise FileNotFoundError(
                    f"no columnar store at {path!r} (missing "
                    f"{MANIFEST_NAME})"
                )
        else:
            self._root.mkdir(parents=True, exist_ok=True)
            (self._root / "rounds").mkdir(exist_ok=True)
            if not manifest_path.exists():
                _atomic_write_json(manifest_path, {
                    "backend": self.BACKEND,
                    "version": _FORMAT_VERSION,
                    "rounds": {},
                    "meta": {},
                })
        manifest = self._manifest()
        if manifest.get("backend") != self.BACKEND:
            raise ValueError(
                f"{path!r} is not a columnar store "
                f"(backend={manifest.get('backend')!r})"
            )
        if manifest.get("version") != _FORMAT_VERSION:
            if manifest["rounds"]:
                raise UnsupportedStoreFormat(
                    f"unsupported store format {manifest.get('version')}: "
                    "this version opens only columnar format "
                    f"{_FORMAT_VERSION} stores — re-run the campaign to "
                    "rebuild it"
                )
            if not readonly:
                self._write_manifest(dict(manifest, version=_FORMAT_VERSION))
        self._next_quarantine_id = self._scan_max_quarantine_id() + 1

    @classmethod
    def open_readonly(cls, path: str, **kwargs) -> "ColumnarStore":
        """Open an existing store strictly for reading; raises
        :class:`FileNotFoundError` when *path* holds no manifest
        (read-only mode never creates files)."""
        return cls(path, readonly=True, **kwargs)

    # ------------------------------------------------------------------
    # file plumbing

    def _round_dir(self, round_id: int) -> Path:
        return self._root / "rounds" / f"r{round_id:05d}"

    def _shard_path(self, round_id: int, shard_index: int) -> Path:
        return self._round_dir(round_id) / f"s{shard_index:05d}.json"

    def _journal_path(self, round_id: int) -> Path:
        return self._round_dir(round_id) / "journal.jsonl"

    def _views_path(self, round_id: int) -> Path:
        return self._round_dir(round_id) / "views.json"

    def _cached(self, path: Path, loader):
        """Load *path* through the mtime/size cache (readers see writer
        updates because every mutation replaces the file)."""
        try:
            stat = os.stat(path)
            key = (stat.st_mtime_ns, stat.st_size)
        except FileNotFoundError:
            key = None
        hit = self._cache.get(path)
        if hit is not None and hit[0] == key:
            return hit[1]
        value = loader()
        self._cache[path] = (key, value)
        return value

    def _invalidate(self, path: Path) -> None:
        self._cache.pop(path, None)

    def _manifest(self) -> dict:
        path = self._root / MANIFEST_NAME
        return self._cached(
            path, lambda: _read_json(path, {"backend": self.BACKEND,
                                            "rounds": {}, "meta": {}})
        )

    def _write_manifest(self, manifest: dict) -> None:
        path = self._root / MANIFEST_NAME
        _atomic_write_json(path, manifest)
        self._invalidate(path)

    def _journal(self, round_id: int) -> list[ShardJournalEntry]:
        path = self._journal_path(round_id)

        def load():
            return [
                ShardJournalEntry(
                    round_id=round_id,
                    shard_index=entry["shard_index"],
                    record_count=entry["record_count"],
                    errors=entry.get("errors", 0),
                    operations=entry.get("operations", 0),
                    checksum=entry.get("checksum", ""),
                    quarantine_count=entry.get("quarantine_count", 0),
                )
                for entry in _read_jsonl(path)
            ]

        return self._cached(path, load)

    def _views(self, round_id: int) -> dict:
        path = self._views_path(round_id)
        return self._cached(
            path,
            lambda: _read_json(path, {
                "folded": [],
                "summary": {"responsive": 0, "available": 0,
                            "fetched": 0, "quarantined": 0},
                "ip": {},
                "agg": {column: [] for column in sorted(AGGREGATE_COLUMNS)},
            }),
        )

    def _shard_file(self, round_id: int, shard_index: int) -> dict | None:
        path = self._shard_path(round_id, shard_index)
        return self._cached(path, lambda: _read_json(path, None))

    def _round_entry(self, round_id: int) -> dict | None:
        return self._manifest()["rounds"].get(str(round_id))

    @staticmethod
    def _entry_info(entry: dict) -> RoundInfo:
        return RoundInfo(
            entry["round_id"], entry["timestamp"], entry["targets_probed"],
            entry["responsive_count"], degraded=bool(entry["degraded"]),
            error_count=entry["error_count"], status=entry["status"],
            shard_size=entry["shard_size"],
            duration_seconds=entry["duration_seconds"],
        )

    def _any_round(self, round_id: int) -> RoundInfo:
        entry = self._round_entry(round_id)
        if entry is None:
            raise KeyError(f"no such round: {round_id}")
        return self._entry_info(entry)

    def _open_round(self, round_id: int) -> RoundInfo:
        info = self._any_round(round_id)
        if info.status != ROUND_IN_PROGRESS:
            raise ValueError(f"round {round_id} is not open for writing")
        return info

    def _require_writer(self) -> None:
        if self.readonly:
            raise ValueError("store is read-only")

    def _scan_max_quarantine_id(self) -> int:
        highest = 0
        manifest = self._manifest()
        for key in manifest.get("rounds", {}):
            round_id = int(key)
            for journal_entry in self._journal(round_id):
                shard = self._shard_file(
                    round_id, journal_entry.shard_index
                )
                if shard is None:
                    continue
                for row in shard.get("quarantine", []):
                    highest = max(highest, int(row.get("entry_id", 0)))
        return highest

    # ------------------------------------------------------------------
    # journaled writes

    def begin_round(
        self,
        round_id: int,
        timestamp: int,
        targets_probed: int,
        *,
        shard_size: int = 0,
    ) -> RoundInfo:
        with self._lock:
            self._require_writer()
            manifest = dict(self._manifest())
            rounds = dict(manifest.get("rounds", {}))
            for key, entry in rounds.items():
                if (entry["timestamp"] == timestamp
                        and entry["round_id"] != round_id):
                    raise ValueError(
                        f"timestamp {timestamp} already used by round "
                        f"{entry['round_id']}; refusing to clobber its data"
                    )
            existing = rounds.get(str(round_id))
            if existing is not None:
                if existing["status"] == ROUND_IN_PROGRESS:
                    return self._entry_info(existing)
                raise ValueError(f"round {round_id} is already finalized")
            self._round_dir(round_id).mkdir(parents=True, exist_ok=True)
            rounds[str(round_id)] = {
                "round_id": round_id,
                "timestamp": timestamp,
                "targets_probed": targets_probed,
                "responsive_count": 0,
                "degraded": 0,
                "error_count": 0,
                "status": ROUND_IN_PROGRESS,
                "shard_size": shard_size,
                "duration_seconds": 0.0,
            }
            manifest["rounds"] = rounds
            self._write_manifest(manifest)
            return self._any_round(round_id)

    def write_rows(
        self,
        round_id: int,
        shard_index: int,
        rows: Sequence[tuple],
        bodies: Mapping[bytes, str],
        *,
        errors: int = 0,
        operations: int = 0,
        quarantine: Iterable[QuarantineRecord] = (),
    ) -> bool:
        with self._lock:
            self._require_writer()
            self._open_round(round_id)
            if shard_index in self.completed_shards(round_id):
                return False
            started = time.perf_counter()
            checksum = shard_checksum(rows)
            row_dicts = []
            for row in rows:
                row_dict = dict(zip(COLUMN_NAMES, row))
                digest = row[_BODY_INDEX]
                row_dict["body"] = None if digest is None else bodies[digest]
                row_dicts.append(row_dict)
            entries = list(quarantine)
            quarantine_rows = []
            for entry in entries:
                row = entry.to_row()
                row["entry_id"] = self._next_quarantine_id
                self._next_quarantine_id += 1
                quarantine_rows.append(row)
            shard_path = self._shard_path(round_id, shard_index)
            _atomic_write_json(shard_path, {
                "shard_index": shard_index,
                "columns": _columns_from_rows(row_dicts),
                "quarantine": quarantine_rows,
            })
            self._invalidate(shard_path)
            self._fold_shard(round_id, shard_index, row_dicts,
                             len(quarantine_rows))
            _append_jsonl(self._journal_path(round_id), {
                "shard_index": shard_index,
                "record_count": len(row_dicts),
                "errors": errors,
                "operations": operations,
                "checksum": checksum,
                "quarantine_count": len(quarantine_rows),
            })
            self._invalidate(self._journal_path(round_id))
            self._note_flush(1, time.perf_counter() - started)
            return True

    def _fold_shard(
        self,
        round_id: int,
        shard_index: int,
        row_dicts: list[dict],
        quarantined: int,
    ) -> None:
        """Fold one shard into the round's read models and atomically
        replace ``views.json``.  The ``folded`` list makes this
        idempotent across the crash window between the views replace
        and the journal append."""
        views = json.loads(json.dumps(self._views(round_id)))
        if shard_index in views["folded"]:
            return
        counts = summarize_rows(row_dicts)
        summary = views["summary"]
        summary["responsive"] += counts["responsive"]
        summary["available"] += counts["available"]
        summary["fetched"] += counts["fetched"]
        summary["quarantined"] += quarantined
        for row in row_dicts:
            views["ip"][str(row["ip"])] = light_row(row)
        for column in sorted(AGGREGATE_COLUMNS):
            tally: dict = {}
            for value, count in views["agg"].get(column, []):
                tally[_agg_key(value)] = [value, count]
            for row in row_dicts:
                value = row[column]
                if value is None:
                    continue
                slot = tally.setdefault(_agg_key(value), [value, 0])
                slot[1] += 1
            views["agg"][column] = list(tally.values())
        views["folded"] = sorted(set(views["folded"]) | {shard_index})
        path = self._views_path(round_id)
        _atomic_write_json(path, views)
        self._invalidate(path)
        self._note_view_fold()

    def finalize_round(
        self,
        round_id: int,
        *,
        degraded: bool = False,
        error_count: int | None = None,
        duration_seconds: float = 0.0,
    ) -> RoundInfo:
        with self._lock:
            self._require_writer()
            self._open_round(round_id)
            journal = self._journal(round_id)
            if error_count is None:
                error_count = sum(entry.errors for entry in journal)
            responsive = sum(entry.record_count for entry in journal)
            manifest = dict(self._manifest())
            rounds = dict(manifest["rounds"])
            entry = dict(rounds[str(round_id)])
            entry.update(
                responsive_count=responsive,
                degraded=int(degraded),
                error_count=error_count,
                status=ROUND_DEGRADED if degraded else ROUND_COMPLETE,
                duration_seconds=float(duration_seconds),
            )
            rounds[str(round_id)] = entry
            manifest["rounds"] = rounds
            self._write_manifest(manifest)
            return self._any_round(round_id)

    # ------------------------------------------------------------------
    # recovery

    def open_rounds(self) -> list[RoundInfo]:
        infos = [
            self._entry_info(entry)
            for entry in self._manifest()["rounds"].values()
            if entry["status"] == ROUND_IN_PROGRESS
        ]
        return sorted(infos, key=lambda i: (i.timestamp, i.round_id))

    def completed_shards(self, round_id: int) -> set[int]:
        return {entry.shard_index for entry in self._journal(round_id)}

    def shard_stats(self, round_id: int) -> tuple[int, int]:
        journal = self._journal(round_id)
        return (
            sum(entry.errors for entry in journal),
            sum(entry.operations for entry in journal),
        )

    def shard_journal(self, round_id: int) -> list[ShardJournalEntry]:
        return sorted(
            self._journal(round_id), key=lambda entry: entry.shard_index
        )

    def _shard_rows(self, round_id: int, shard_index: int) -> list[dict]:
        shard = self._shard_file(round_id, shard_index)
        if shard is None:
            return []
        return _rows_from_columns(shard.get("columns", {}))

    def shard_records(
        self, round_id: int, shard_index: int
    ) -> list[RoundRecord]:
        self._any_round(round_id)
        return [
            RoundRecord.from_row(row)
            for row in self._shard_rows(round_id, shard_index)
        ]

    def shard_quarantine(
        self, round_id: int, shard_index: int
    ) -> list[QuarantineRecord]:
        shard = self._shard_file(round_id, shard_index)
        if shard is None:
            return []
        replayed = self._replayed_ids()
        rows = sorted(
            shard.get("quarantine", []),
            key=lambda row: row.get("entry_id", 0),
        )
        return [self._quarantine_record(row, replayed) for row in rows]

    @staticmethod
    def _quarantine_record(
        row: dict, replayed: set[int]
    ) -> QuarantineRecord:
        record = QuarantineRecord.from_row(row)
        if record.entry_id in replayed and not record.replayed:
            record = QuarantineRecord(
                ip=record.ip, round_id=record.round_id,
                timestamp=record.timestamp, stage=record.stage,
                verdict=record.verdict, error_class=record.error_class,
                error=record.error, payload=record.payload,
                entry_id=record.entry_id, replayed=True,
            )
        return record

    def verify_round(self, round_id: int) -> RoundVerification:
        with self._lock:
            info = self._any_round(round_id)
            entries = self.shard_journal(round_id)
            report = RoundVerification(
                round_id=round_id, timestamp=info.timestamp,
                status=info.status, shards=len(entries),
            )
            present = {entry.shard_index for entry in entries}
            if info.status != ROUND_IN_PROGRESS:
                if info.shard_size > 0:
                    expected = max(
                        1, math.ceil(info.targets_probed / info.shard_size)
                    )
                    report.missing = sorted(set(range(expected)) - present)
                elif entries and 0 not in present:
                    report.missing = [0]
            attributed_rows = 0
            attributed_quarantine = 0
            for entry in entries:
                rows = self._shard_rows(round_id, entry.shard_index)
                shard = self._shard_file(round_id, entry.shard_index)
                attributed_rows += len(rows)
                attributed_quarantine += len(
                    (shard or {}).get("quarantine", [])
                )
                if (
                    len(rows) != entry.record_count
                    or shard_checksum(_row_tuples(rows)) != entry.checksum
                ):
                    report.corrupt.append(entry.shard_index)
                else:
                    report.verified += 1
            # Orphans: shard files (and their quarantine entries) not
            # covered by any journal entry — an interrupted commit, or
            # tampering.  Counted but never read by queries.
            round_dir = self._round_dir(round_id)
            if round_dir.is_dir():
                for path in sorted(round_dir.glob("s*.json")):
                    index = int(path.stem[1:])
                    if index in present:
                        continue
                    shard = _read_json(path, None) or {}
                    report.orphan_rows += len(
                        shard.get("columns", {}).get("ip", [])
                    )
                    report.orphan_quarantine += len(
                        shard.get("quarantine", [])
                    )
            self._audit_views(round_id, entries, report)
            return report

    def _audit_views(
        self,
        round_id: int,
        entries: list[ShardJournalEntry],
        report: RoundVerification,
    ) -> None:
        """Recompute the round's read models from its journaled shards
        and compare against ``views.json``."""
        views = self._views(round_id)
        expected_summary = {"responsive": 0, "available": 0, "fetched": 0,
                            "quarantined": 0}
        expected_ip: dict[str, dict] = {}
        expected_agg: dict[str, dict] = {
            column: {} for column in sorted(AGGREGATE_COLUMNS)
        }
        for entry in entries:
            rows = self._shard_rows(round_id, entry.shard_index)
            counts = summarize_rows(rows)
            for key in ("responsive", "available", "fetched"):
                expected_summary[key] += counts[key]
            expected_summary["quarantined"] += entry.quarantine_count
            for row in rows:
                expected_ip[str(row["ip"])] = light_row(row)
                for column in expected_agg:
                    value = row[column]
                    if value is None:
                        continue
                    slot = expected_agg[column].setdefault(
                        _agg_key(value), [value, 0]
                    )
                    slot[1] += 1
        if views["summary"] != expected_summary:
            report.view_issues.append("round_summary")
        if views["ip"] != expected_ip:
            report.view_issues.append("ip_history")
        actual_agg = {
            column: {
                _agg_key(value): [value, count]
                for value, count in views["agg"].get(column, [])
            }
            for column in expected_agg
        }
        if actual_agg != expected_agg:
            report.view_issues.append("cluster_agg")

    def max_round_id(self) -> int:
        rounds = self._manifest()["rounds"]
        return max((int(key) for key in rounds), default=0)

    # ------------------------------------------------------------------
    # quarantine (dead-letter)

    def _replayed_ids(self) -> set[int]:
        path = self._root / "replayed.json"
        return set(self._cached(path, lambda: _read_json(path, [])))

    def _all_quarantine(
        self, round_id: int | None = None
    ) -> list[QuarantineRecord]:
        replayed = self._replayed_ids()
        rows: list[dict] = []
        for key in self._manifest()["rounds"]:
            rid = int(key)
            if round_id is not None and rid != round_id:
                continue
            for entry in self._journal(rid):
                shard = self._shard_file(rid, entry.shard_index)
                if shard is not None:
                    rows.extend(shard.get("quarantine", []))
        rows.sort(key=lambda row: row.get("entry_id", 0))
        return [self._quarantine_record(row, replayed) for row in rows]

    def quarantine_rows(
        self,
        round_id: int | None = None,
        *,
        include_replayed: bool = True,
    ) -> list[QuarantineRecord]:
        records = self._all_quarantine(round_id)
        if not include_replayed:
            records = [r for r in records if not r.replayed]
        return records

    def quarantine_count(self, round_id: int | None = None) -> int:
        return len(self._all_quarantine(round_id))

    def mark_quarantine_replayed(self, entry_id: int) -> None:
        with self._lock:
            self._require_writer()
            ids = self._replayed_ids()
            ids.add(int(entry_id))
            path = self._root / "replayed.json"
            _atomic_write_json(path, sorted(ids))
            self._invalidate(path)

    def update_features(
        self, round_id: int, ip: int, features: PageFeatures
    ) -> bool:
        """Rewrite the owning shard with the new feature columns, then
        atomically rewrite the journal (updated checksum) and refold
        the views.  Unlike sqlite's single transaction this is a
        three-file sequence; :meth:`verify_round` detects a torn state
        (checksum or view mismatch) if a crash lands between steps."""
        with self._lock:
            self._require_writer()
            self._any_round(round_id)
            journal = self.shard_journal(round_id)
            for entry in journal:
                shard = self._shard_file(round_id, entry.shard_index)
                if shard is None or ip not in shard["columns"]["ip"]:
                    continue
                index = shard["columns"]["ip"].index(ip)
                shard = json.loads(json.dumps(shard))
                columns = shard["columns"]
                old_row = {
                    name: columns[name][index] for name in COLUMN_NAMES
                }
                for name, value in (
                    ("powered_by", features.powered_by),
                    ("description", features.description),
                    ("header_string", features.header_string),
                    ("html_length", features.html_length),
                    ("title", features.title),
                    ("template", features.template),
                    ("server", features.server),
                    ("keywords", features.keywords),
                    ("analytics_id", features.analytics_id),
                    ("simhash", f"{features.simhash:024x}"),
                ):
                    columns[name][index] = value
                shard_path = self._shard_path(round_id, entry.shard_index)
                _atomic_write_json(shard_path, shard)
                self._invalidate(shard_path)
                rows = _rows_from_columns(columns)
                self._rewrite_journal_checksum(
                    round_id, entry.shard_index,
                    shard_checksum(_row_tuples(rows)),
                )
                new_row = {
                    name: columns[name][index] for name in COLUMN_NAMES
                }
                self._refold_replayed_row(round_id, old_row, new_row)
                return True
            return False

    def _rewrite_journal_checksum(
        self, round_id: int, shard_index: int, checksum: str
    ) -> None:
        path = self._journal_path(round_id)
        entries = _read_jsonl(path)
        for entry in entries:
            if (entry["shard_index"] == shard_index
                    and entry.get("checksum")):
                entry["checksum"] = checksum
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, separators=(",", ":"),
                                    ensure_ascii=False) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._invalidate(path)

    def _refold_replayed_row(
        self, round_id: int, old_row: dict, new_row: dict
    ) -> None:
        views = json.loads(json.dumps(self._views(round_id)))
        views["ip"][str(new_row["ip"])] = light_row(new_row)
        for column in sorted(AGGREGATE_COLUMNS):
            tally = {
                _agg_key(value): [value, count]
                for value, count in views["agg"].get(column, [])
            }
            old_value, new_value = old_row[column], new_row[column]
            if old_value == new_value:
                continue
            if old_value is not None:
                key = _agg_key(old_value)
                if key in tally:
                    tally[key][1] -= 1
                    if tally[key][1] <= 0:
                        del tally[key]
            if new_value is not None:
                slot = tally.setdefault(_agg_key(new_value), [new_value, 0])
                slot[1] += 1
            views["agg"][column] = list(tally.values())
        path = self._views_path(round_id)
        _atomic_write_json(path, views)
        self._invalidate(path)

    # ------------------------------------------------------------------
    # campaign metadata

    def set_meta(self, key: str, value: str) -> None:
        with self._lock:
            self._require_writer()
            manifest = dict(self._manifest())
            meta = dict(manifest.get("meta", {}))
            meta[key] = value
            manifest["meta"] = meta
            self._write_manifest(manifest)

    def get_meta(self, key: str, default: str | None = None) -> str | None:
        return self._manifest().get("meta", {}).get(key, default)

    # ------------------------------------------------------------------
    # reads

    def rounds(self) -> list[RoundInfo]:
        infos = [
            self._entry_info(entry)
            for entry in self._manifest()["rounds"].values()
            if entry["status"] != ROUND_IN_PROGRESS
        ]
        return sorted(infos, key=lambda i: (i.timestamp, i.round_id))

    def round_info(self, round_id: int) -> RoundInfo:
        info = self._any_round(round_id)
        if info.status == ROUND_IN_PROGRESS:
            raise KeyError(f"round {round_id} is still in progress")
        return info

    def round_stats(self, round_id: int) -> dict[str, int]:
        self._any_round(round_id)
        summary = self._views(round_id)["summary"]
        return {
            key: int(summary[key])
            for key in ("responsive", "available", "fetched", "quarantined")
        }

    def aggregate_column(
        self, round_id: int, column: str, *, limit: int = 20
    ) -> list[tuple[str, int]]:
        if column not in AGGREGATE_COLUMNS:
            raise ValueError(f"cannot aggregate by column {column!r}")
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.round_info(round_id)
        pairs = self._views(round_id)["agg"].get(column, [])
        ordered = sorted(pairs, key=lambda pair: (-pair[1], pair[0]))
        return [
            (str(value), int(count)) for value, count in ordered[:limit]
        ]

    def records(self, round_id: int) -> Iterator[RoundRecord]:
        self.round_info(round_id)
        for entry in self.shard_journal(round_id):
            for row in self._shard_rows(round_id, entry.shard_index):
                yield RoundRecord.from_row(row)

    def columns(
        self, round_id: int, names: Sequence[str]
    ) -> Iterator[tuple]:
        names = check_column_names(names)
        self.round_info(round_id)
        shards = (
            self._shard_file(round_id, entry.shard_index)
            for entry in self.shard_journal(round_id)
        )
        return itertools.chain.from_iterable(
            zip(*(_column(shard["columns"], name) for name in names))
            for shard in shards if shard is not None
        )

    def record(self, round_id: int, ip: int) -> RoundRecord | None:
        self.round_info(round_id)
        for entry in self.shard_journal(round_id):
            shard = self._shard_file(round_id, entry.shard_index)
            if shard is None:
                continue
            ips = shard["columns"]["ip"]
            if ip in ips:
                index = ips.index(ip)
                row = {
                    name: shard["columns"][name][index]
                    for name in COLUMN_NAMES
                }
                return RoundRecord.from_row(row)
        return None

    def history(self, ip: int) -> list[RoundRecord]:
        history: list[RoundRecord] = []
        for info in self.rounds():
            record = self.record(info.round_id, ip)
            if record is not None:
                history.append(record)
        return history

    def ip_history_rows(self, ip: int) -> list[dict]:
        """Per-round dictionary lookups in ``views.json`` — no shard
        decode at all on the serving layer's hot path."""
        rows: list[dict] = []
        key = str(ip)
        for info in self.rounds():
            row = self._views(info.round_id)["ip"].get(key)
            if row is not None:
                rows.append(dict(row))
        return rows

    def responsive_ips(self, round_id: int) -> set[int]:
        self.round_info(round_id)
        ips: set[int] = set()
        for entry in self.shard_journal(round_id):
            shard = self._shard_file(round_id, entry.shard_index)
            if shard is not None:
                ips.update(shard["columns"]["ip"])
        return ips

    # ------------------------------------------------------------------
    # read models

    def rebuild_views(self) -> int:
        """Refold every round's ``views.json`` from its journaled
        shards (one atomic replace per round)."""
        with self._lock:
            self._require_writer()
            refolded = 0
            for key in sorted(self._manifest()["rounds"], key=int):
                round_id = int(key)
                views = {
                    "folded": [],
                    "summary": {"responsive": 0, "available": 0,
                                "fetched": 0, "quarantined": 0},
                    "ip": {},
                    "agg": {
                        column: [] for column in sorted(AGGREGATE_COLUMNS)
                    },
                }
                path = self._views_path(round_id)
                _atomic_write_json(path, views)
                self._invalidate(path)
                for entry in self.shard_journal(round_id):
                    self._fold_shard(
                        round_id, entry.shard_index,
                        self._shard_rows(round_id, entry.shard_index),
                        entry.quarantine_count,
                    )
                refolded += 1
            return refolded

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        """All state is persisted synchronously; just drop the caches."""
        self._cache.clear()


def _agg_key(value) -> str:
    """Hashable dict key for an aggregate value that keeps ints and
    strings distinct (JSON object keys must be strings)."""
    return f"{type(value).__name__}:{value}"
