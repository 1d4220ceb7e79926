"""The SQLite reference engine of the WhoWas measurement database (§4).

Mirrors the paper's storage layout: **each round of scanning uses a
distinct table**, with the round's timestamp in the table name, plus a
``rounds`` metadata table.  Backed by sqlite3 (file or ``:memory:``)
instead of MySQL; the schema and the programmatic lookup API — "give me
the history of status and content for this IP address over time" — are
the same.

Only *responsive* IPs produce rows (the target list is known, so
unresponsiveness is encoded by absence), which keeps a campaign's
database proportional to cloud usage rather than address-space size.

Crash safety
------------
The paper's campaigns run for months; losing one to a mid-round crash
is unacceptable.  File-backed stores therefore run sqlite in WAL mode,
and writes follow the **journaled round protocol** of
:class:`~repro.core.store.base.StoreBackend`: ``begin_round`` /
idempotent ``write_shard`` / ``finalize_round``.  A crash between
shards leaves a resumable partial round that :meth:`open_rounds`
surfaces and :meth:`completed_shards` describes.

Shard integrity
---------------
Every committed shard journals a **checksum** (see
:func:`~repro.core.store.base.shard_checksum`); each row carries the
``shard_index`` it was committed under, so rows can be attributed to
their journal entry regardless of the order shards landed in.

Materialized read models
------------------------
Three views are folded incrementally, **inside the same transaction**
that commits each shard, so they can never drift from the base data
across a crash:

* ``view_ip_history`` — one light row per (ip, round): the WhoWas
  lookup without dragging page bodies off disk.  Its ``(ip, round_id)``
  WITHOUT-ROWID primary key doubles as the covering index for per-IP
  record lookups.
* ``view_round_summary`` — per-round responsive/available/fetched/
  quarantined counters (``repro stats`` and ``/rounds/<id>``).
* ``view_cluster_agg`` — per-round ``(column, value) → count`` for
  every :data:`~repro.core.store.base.AGGREGATE_COLUMNS` column
  (``/clusters/<id>``), replacing per-request GROUP-BY scans.

``rebuild_views()`` refolds everything from the base tables (the
``repro rebuild-views`` escape hatch); :meth:`verify_round` audits the
views against the base data with the same checksum discipline as the
shards.  Reads fall back to base-table scans for rounds written before
the views existed (no summary row = unfolded round).
"""

from __future__ import annotations

import math
import random
import sqlite3
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from ..backoff import backoff_delay
from ..records import PageFeatures, QuarantineRecord, RoundRecord
from . import base as _base
from .base import (
    AGGREGATE_COLUMNS,
    COLUMN_NAMES,
    COLUMNS,
    IP_HISTORY_COLUMNS,
    ROUND_COMPLETE,
    ROUND_DEGRADED,
    ROUND_IN_PROGRESS,
    RoundInfo,
    RoundVerification,
    ShardJournalEntry,
    ShardPayload,
    StoreBackend,
    rows_checksum,
    shard_checksum,
)

__all__ = ["MeasurementStore"]

#: The feature columns ``update_features`` may change that also feed
#: ``view_cluster_agg`` — the delta set the replay path re-folds.
_REPLAYED_AGG_COLUMNS = ("powered_by", "title", "template", "server")

_VIEW_TABLES = ("view_ip_history", "view_round_summary", "view_cluster_agg")

#: Columns added to the round tables after the first databases were
#: written (the ones ``RoundRecord.from_row`` tolerates the absence of).
_LATE_COLUMNS = ("error_class", "probe_error_class", "ssh_banner")

#: SQL projection of a base-table row onto the per-IP-history read
#: model — mirrors :func:`~repro.core.store.base.light_row` (feature
#: columns are nulled for rows without stored page content).
_LIGHT_SELECT = (
    "ip, round_id, timestamp, open_ports, fetch_status, status_code,"
    " CASE WHEN body IS NULL THEN NULL ELSE server END,"
    " CASE WHEN body IS NULL THEN NULL ELSE title END,"
    " CASE WHEN body IS NULL THEN NULL ELSE template END"
)


def _connect(
    path: str, *, readonly: bool = False, busy_timeout_ms: int = 5_000
) -> sqlite3.Connection:
    """Open one sqlite connection with the store's pragma/URI dance.

    Writers get WAL + ``synchronous=NORMAL`` (committed shards stay
    durable across a crash, readers can inspect a live campaign);
    read-only connections use sqlite's ``mode=ro`` URI *plus* the
    ``query_only`` pragma, so they can never take a write lock or
    mutate anything, even by accident — and never create files.
    Both shapes share ``Row`` factory, ``busy_timeout``, and
    ``check_same_thread=False`` (the store serialises access with its
    own lock, and the pipeline may commit from a worker thread).
    """
    if readonly:
        if path == ":memory:":
            raise ValueError("cannot open an in-memory store read-only")
        conn = sqlite3.connect(
            f"file:{path}?mode=ro", uri=True, check_same_thread=False
        )
    else:
        conn = sqlite3.connect(path, check_same_thread=False)
    conn.row_factory = sqlite3.Row
    conn.execute(f"PRAGMA busy_timeout={int(busy_timeout_ms)}")
    if readonly:
        conn.execute("PRAGMA query_only=ON")
    else:
        # sqlite silently keeps the "memory" journal for :memory: stores.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    return conn


class MeasurementStore(StoreBackend):
    """sqlite3-backed store with one table per scan round — the
    reference :class:`StoreBackend` implementation."""

    BACKEND = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        *,
        busy_timeout_ms: int = 5_000,
        busy_retries: int = 5,
        busy_backoff_base: float = 0.05,
        busy_backoff_max: float = 1.0,
        readonly: bool = False,
    ):
        super().__init__()
        #: The database file this store is backed by (":memory:" for
        #: ephemeral stores) — the coordinator derives partition-journal
        #: paths from it.
        self.path = path
        #: True for stores opened through :meth:`open_readonly` — the
        #: connection can never take a write lock on the database.
        self.readonly = readonly
        # Contended writers (coordinator merge vs. a live reader, or
        # two processes sharing a file) surface as SQLITE_BUSY; the
        # busy_timeout handles intra-transaction waits and _commit()
        # adds a bounded jittered retry loop on top.
        self._busy_retries = busy_retries
        self._busy_backoff_base = busy_backoff_base
        self._busy_backoff_max = busy_backoff_max
        self._busy_random = random.Random()  # jitter only, never data
        self._m_busy_retries = _base._telemetry.get().counter(
            "repro_store_busy_retries_total",
            "Commits re-issued after SQLITE_BUSY/locked",
        )
        # The pipeline's writer stage runs its commits in a worker
        # thread so fsync never blocks the event loop; the RLock
        # serialises all connection access.
        self._conn = _connect(
            path, readonly=readonly, busy_timeout_ms=busy_timeout_ms
        )
        self._lock = threading.RLock()
        if readonly:
            # No schema DDL or migration runs on a reader; view-backed
            # read paths are available only when the writer (or a
            # migration) created the tables.
            self._has_views = self._table_exists("view_round_summary")
            return
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS rounds ("
            "  round_id INTEGER PRIMARY KEY,"
            "  timestamp INTEGER NOT NULL,"
            "  targets_probed INTEGER NOT NULL,"
            "  responsive_count INTEGER NOT NULL,"
            "  degraded INTEGER NOT NULL DEFAULT 0,"
            "  error_count INTEGER NOT NULL DEFAULT 0,"
            f"  round_status TEXT NOT NULL DEFAULT '{ROUND_COMPLETE}',"
            "  shard_size INTEGER NOT NULL DEFAULT 0,"
            "  duration_seconds REAL NOT NULL DEFAULT 0"
            ")"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS round_shards ("
            "  round_id INTEGER NOT NULL,"
            "  shard_index INTEGER NOT NULL,"
            "  record_count INTEGER NOT NULL,"
            "  errors INTEGER NOT NULL DEFAULT 0,"
            "  operations INTEGER NOT NULL DEFAULT 0,"
            "  checksum TEXT NOT NULL DEFAULT '',"
            "  quarantine_count INTEGER NOT NULL DEFAULT 0,"
            "  PRIMARY KEY (round_id, shard_index)"
            ")"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS campaign_meta ("
            "  key TEXT PRIMARY KEY,"
            "  value TEXT NOT NULL"
            ")"
        )
        # Dead-letter quarantine: pages the supervision layer had to
        # neutralise (deadline kills, trapped exceptions, hostile
        # content).  Journaled with the shard that produced them so a
        # resumed round never duplicates entries.
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS quarantine ("
            "  entry_id INTEGER PRIMARY KEY AUTOINCREMENT,"
            "  round_id INTEGER NOT NULL,"
            "  ip INTEGER NOT NULL,"
            "  timestamp INTEGER NOT NULL,"
            "  stage TEXT NOT NULL,"
            "  verdict TEXT NOT NULL,"
            "  error_class TEXT,"
            "  error TEXT,"
            "  payload TEXT NOT NULL DEFAULT '',"
            "  replayed INTEGER NOT NULL DEFAULT 0,"
            "  shard_index INTEGER NOT NULL DEFAULT 0"
            ")"
        )
        # Materialized read models.  The (ip, round_id) WITHOUT-ROWID
        # primary key IS the per-IP covering index: a history lookup is
        # one clustered B-tree range scan over light rows.  Creating
        # these on an existing database is the schema migration — old
        # rounds simply have no summary row until `repro rebuild-views`.
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS view_ip_history ("
            "  ip INTEGER NOT NULL,"
            "  round_id INTEGER NOT NULL,"
            "  timestamp INTEGER NOT NULL,"
            "  open_ports TEXT NOT NULL,"
            "  fetch_status TEXT NOT NULL,"
            "  status_code INTEGER,"
            "  server TEXT,"
            "  title TEXT,"
            "  template TEXT,"
            "  PRIMARY KEY (ip, round_id)"
            ") WITHOUT ROWID"
        )
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS view_round_summary ("
            "  round_id INTEGER PRIMARY KEY,"
            "  responsive INTEGER NOT NULL DEFAULT 0,"
            "  available INTEGER NOT NULL DEFAULT 0,"
            "  fetched INTEGER NOT NULL DEFAULT 0,"
            "  quarantined INTEGER NOT NULL DEFAULT 0"
            ")"
        )
        # `value` is declared without a type on purpose: no affinity,
        # so integer values (status_code) keep integer ordering and
        # text values keep text ordering — matching the base tables.
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS view_cluster_agg ("
            "  round_id INTEGER NOT NULL,"
            "  column_name TEXT NOT NULL,"
            "  value,"
            "  n INTEGER NOT NULL DEFAULT 0,"
            "  PRIMARY KEY (round_id, column_name, value)"
            ") WITHOUT ROWID"
        )
        self._has_views = True
        self._migrate_rounds_table()
        self._migrate_shard_tables()
        self._migrate_round_indexes()
        self._commit()

    def _migrate_rounds_table(self) -> None:
        """Upgrade databases written before the resilience/journal
        columns existed (older files lack ``degraded``, ``error_count``
        and ``round_status``)."""
        existing = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(rounds)")
        }
        for name in ("degraded", "error_count"):
            if name not in existing:
                self._conn.execute(
                    f"ALTER TABLE rounds ADD COLUMN {name} "
                    "INTEGER NOT NULL DEFAULT 0"
                )
        if "round_status" not in existing:
            self._conn.execute(
                "ALTER TABLE rounds ADD COLUMN round_status "
                f"TEXT NOT NULL DEFAULT '{ROUND_COMPLETE}'"
            )
            # Pre-journal rounds were only ever written whole, so they
            # are complete; carry the degraded flag into the status.
            self._conn.execute(
                "UPDATE rounds SET round_status = ? WHERE degraded = 1",
                (ROUND_DEGRADED,),
            )
        if "shard_size" not in existing:
            self._conn.execute(
                "ALTER TABLE rounds ADD COLUMN shard_size "
                "INTEGER NOT NULL DEFAULT 0"
            )
        if "duration_seconds" not in existing:
            self._conn.execute(
                "ALTER TABLE rounds ADD COLUMN duration_seconds "
                "REAL NOT NULL DEFAULT 0"
            )

    def _migrate_round_indexes(self) -> None:
        """Backfill the per-round ``(ip)`` index.  Finalize creates it,
        so only tables from runs that crashed between their last shard
        and finalize (then resumed on older code) can lack it — but a
        missing one turns every record/history lookup into a full
        table scan, so opening a writer repairs it unconditionally."""
        for row in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall():
            table = row["name"]
            if not (table.startswith("round_") and
                    table[len("round_"):].isdigit()):
                continue
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS idx_{table}_ip "
                f"ON {table} (ip)"
            )

    def _migrate_shard_tables(self) -> None:
        """Upgrade databases written before shard checksums existed.
        Legacy shards keep an empty checksum — :meth:`verify_round`
        reports them *unverifiable* rather than corrupt."""
        existing = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(round_shards)")
        }
        if "checksum" not in existing:
            self._conn.execute(
                "ALTER TABLE round_shards ADD COLUMN checksum "
                "TEXT NOT NULL DEFAULT ''"
            )
        if "quarantine_count" not in existing:
            self._conn.execute(
                "ALTER TABLE round_shards ADD COLUMN quarantine_count "
                "INTEGER NOT NULL DEFAULT 0"
            )
        quarantine_cols = {
            row["name"]
            for row in self._conn.execute("PRAGMA table_info(quarantine)")
        }
        if quarantine_cols and "shard_index" not in quarantine_cols:
            self._conn.execute(
                "ALTER TABLE quarantine ADD COLUMN shard_index "
                "INTEGER NOT NULL DEFAULT 0"
            )

    @classmethod
    def open_readonly(cls, path: str, **kwargs) -> "MeasurementStore":
        """Open an existing database strictly for reading (see
        :func:`_connect` for the connection shape).  Raises
        :class:`sqlite3.OperationalError` when *path* does not exist
        (read-only mode never creates files)."""
        return cls(path, readonly=True, **kwargs)

    @contextmanager
    def read_deadline(self, deadline: float | None, *, tick: int = 64):
        """Bound every statement on this connection by a monotonic
        *deadline* (``time.monotonic()`` seconds; ``None`` disables).

        Implemented with sqlite's progress handler: once the deadline
        passes, the running statement is aborted and sqlite raises
        ``OperationalError('interrupted')`` — classify it with
        :func:`~repro.core.store.base.is_interrupted`.  This is how the
        serving layer's per-request deadline budget propagates *into*
        store reads, so a pathological query fails at its budget
        instead of piling up behind the connection."""
        if deadline is None:
            yield self
            return

        def _expired():
            return 1 if time.monotonic() >= deadline else 0

        self._conn.set_progress_handler(_expired, tick)
        try:
            yield self
        finally:
            self._conn.set_progress_handler(None, 0)

    def _table_has_column(self, table: str, column: str) -> bool:
        return any(
            row["name"] == column
            for row in self._conn.execute(f"PRAGMA table_info({table})")
        )

    def _table_exists(self, table: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
            (table,),
        ).fetchone() is not None

    def _commit(self) -> None:
        """Commit with a bounded jittered-backoff retry on SQLITE_BUSY.

        ``busy_timeout`` already makes sqlite wait inside one attempt;
        this loop covers writers that keep losing the race (e.g. the
        coordinator merging a partition while a reporting tool holds
        the database).  A failed commit leaves the transaction open, so
        re-issuing it is safe; anything but a busy/locked error — and
        the final exhausted attempt — propagates."""
        for attempt in range(self._busy_retries + 1):
            try:
                self._conn.commit()
                return
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt == self._busy_retries:
                    raise
                self._m_busy_retries.inc()
                time.sleep(backoff_delay(
                    attempt,
                    base=self._busy_backoff_base,
                    cap=self._busy_backoff_max,
                    rng=self._busy_random,
                ))

    # ------------------------------------------------------------------
    # journaled writes

    def begin_round(
        self,
        round_id: int,
        timestamp: int,
        targets_probed: int,
        *,
        shard_size: int = 0,
        fresh: bool = False,
    ) -> RoundInfo:
        with self._lock:
            clash = self._conn.execute(
                "SELECT round_id FROM rounds "
                "WHERE timestamp = ? AND round_id != ?",
                (timestamp, round_id),
            ).fetchone()
            if clash is not None:
                raise ValueError(
                    f"timestamp {timestamp} already used by round "
                    f"{clash['round_id']}; refusing to clobber its table"
                )
            row = self._conn.execute(
                "SELECT round_status FROM rounds WHERE round_id = ?",
                (round_id,),
            ).fetchone()
            table = f"round_{timestamp:05d}"
            if row is not None:
                if fresh:
                    self._conn.execute(f"DROP TABLE IF EXISTS {table}")
                    self._conn.execute(
                        "DELETE FROM round_shards WHERE round_id = ?",
                        (round_id,),
                    )
                    self._conn.execute(
                        "DELETE FROM rounds WHERE round_id = ?", (round_id,)
                    )
                    self._delete_view_rows(round_id)
                elif row["round_status"] == ROUND_IN_PROGRESS:
                    # Resume: keep shards.  Tables written before the
                    # shard_index bookkeeping column gain it here so
                    # the remaining shards insert cleanly.
                    if not self._table_has_column(table, "shard_index"):
                        self._conn.execute(
                            f"ALTER TABLE {table} ADD COLUMN shard_index "
                            "INTEGER NOT NULL DEFAULT 0"
                        )
                        self._commit()
                    return self._any_round(round_id)
                else:
                    raise ValueError(f"round {round_id} is already finalized")
            columns_sql = ", ".join(f"{name} {sql}" for name, sql in COLUMNS)
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} "
                f"({columns_sql}, shard_index INTEGER NOT NULL DEFAULT 0)"
            )
            self._conn.execute(
                "INSERT INTO rounds VALUES (?, ?, ?, 0, 0, 0, ?, ?, 0)",
                (round_id, timestamp, targets_probed, ROUND_IN_PROGRESS,
                 shard_size),
            )
            self._commit()
            return self._any_round(round_id)

    def write_shard(
        self,
        round_id: int,
        shard_index: int,
        records: Iterable[RoundRecord],
        *,
        errors: int = 0,
        operations: int = 0,
        quarantine: Iterable[QuarantineRecord] = (),
    ) -> bool:
        """Commit one shard of a round atomically.

        Idempotent: a shard index that already committed is skipped
        (returns False).  The rows, the shard's *quarantine* entries,
        the shard journal entry, and the read-model fold land in one
        transaction — a crash mid-write rolls the whole shard back,
        and the committed-shard skip covers quarantine entries and the
        fold too (no duplicates on resume)."""
        with self._lock:
            info = self._open_round(round_id)
            started = time.perf_counter()
            try:
                committed = self._insert_shard(
                    info, shard_index, records,
                    errors=errors, operations=operations,
                    quarantine=quarantine,
                )
                self._commit()
            except BaseException:
                self._conn.rollback()
                raise
            if committed:
                self._note_flush(1, time.perf_counter() - started)
            return committed

    def write_shards(
        self, round_id: int, shards: Sequence[ShardPayload]
    ) -> int:
        """Commit a batch of shards in **one** transaction.

        The pipeline's store-writer stage uses this to amortise commit
        (fsync) cost: begin / executemany per shard / single commit.
        Per-shard idempotence is preserved — already-committed shard
        indices inside the batch are skipped, exactly as in
        :meth:`write_shard` — and an error rolls the whole batch back,
        so a crash mid-batch loses at most the batch, never half a
        shard.  Returns the number of shards actually committed."""
        with self._lock:
            info = self._open_round(round_id)
            started = time.perf_counter()
            committed = 0
            try:
                for shard in shards:
                    committed += self._insert_shard(
                        info, shard.shard_index, shard.records,
                        errors=shard.errors, operations=shard.operations,
                        quarantine=shard.quarantine,
                    )
                self._commit()
            except BaseException:
                self._conn.rollback()
                raise
            if committed:
                self._note_flush(committed, time.perf_counter() - started)
            return committed

    def _insert_shard(
        self,
        info: RoundInfo,
        shard_index: int,
        records: Iterable[RoundRecord],
        *,
        errors: int,
        operations: int,
        quarantine: Iterable[QuarantineRecord],
    ) -> bool:
        """Stage one shard's inserts on the open transaction (no
        commit); returns False for an already-committed shard index."""
        already = self._conn.execute(
            "SELECT 1 FROM round_shards WHERE round_id = ? AND shard_index = ?",
            (info.round_id, shard_index),
        ).fetchone()
        if already is not None:
            return False
        row_dicts = [record.to_row() for record in records]
        checksum = shard_checksum(row_dicts)
        entries = list(quarantine)
        placeholders = ", ".join("?" for _ in COLUMN_NAMES)
        # Each row carries the shard index it was committed under so
        # verification/merge can attribute rows to journal entries in
        # any landing order (resume, partition merge, salvage).
        self._conn.executemany(
            f"INSERT INTO {info.table_name} "
            f"({', '.join(COLUMN_NAMES)}, shard_index) "
            f"VALUES ({placeholders}, ?)",
            (
                tuple(row[name] for name in COLUMN_NAMES) + (shard_index,)
                for row in row_dicts
            ),
        )
        self._conn.executemany(
            "INSERT INTO quarantine "
            "(round_id, ip, timestamp, stage, verdict, error_class,"
            " error, payload, replayed, shard_index) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                (entry.round_id, entry.ip, entry.timestamp, entry.stage,
                 entry.verdict, entry.error_class, entry.error,
                 entry.payload, int(entry.replayed), shard_index)
                for entry in entries
            ),
        )
        self._conn.execute(
            "INSERT INTO round_shards VALUES (?, ?, ?, ?, ?, ?, ?)",
            (info.round_id, shard_index, len(row_dicts), errors, operations,
             checksum, len(entries)),
        )
        self._fold_rows(info.round_id, row_dicts, len(entries))
        return True

    def _fold_rows(
        self, round_id: int, row_dicts: Sequence[dict], quarantined: int
    ) -> None:
        """Stage one committed shard's fold into the three read models
        on the open transaction (the shard and its fold are one atomic
        unit).  Always upserts the summary — even for an empty shard —
        so summary-row presence marks the round as view-maintained."""
        self._conn.executemany(
            "INSERT OR REPLACE INTO view_ip_history "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                tuple(_base.light_row(row)[name]
                      for name in IP_HISTORY_COLUMNS)
                for row in row_dicts
            ),
        )
        counts = _base.summarize_rows(row_dicts)
        self._conn.execute(
            "INSERT INTO view_round_summary VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(round_id) DO UPDATE SET"
            " responsive = responsive + excluded.responsive,"
            " available = available + excluded.available,"
            " fetched = fetched + excluded.fetched,"
            " quarantined = quarantined + excluded.quarantined",
            (round_id, counts["responsive"], counts["available"],
             counts["fetched"], quarantined),
        )
        for column in sorted(AGGREGATE_COLUMNS):
            tally = Counter(
                row[column] for row in row_dicts if row[column] is not None
            )
            self._conn.executemany(
                "INSERT INTO view_cluster_agg VALUES (?, ?, ?, ?) "
                "ON CONFLICT(round_id, column_name, value) "
                "DO UPDATE SET n = n + excluded.n",
                (
                    (round_id, column, value, count)
                    for value, count in tally.items()
                ),
            )
        self._note_view_fold()

    def _delete_view_rows(self, round_id: int) -> None:
        for table in _VIEW_TABLES:
            self._conn.execute(
                f"DELETE FROM {table} WHERE round_id = ?", (round_id,)
            )

    def finalize_round(
        self,
        round_id: int,
        *,
        degraded: bool = False,
        error_count: int | None = None,
        duration_seconds: float = 0.0,
    ) -> RoundInfo:
        """Seal an open round: count its rows, build the IP index, and
        flip the status to ``complete``/``degraded``.  *error_count*
        defaults to the sum journaled by :meth:`write_shard`;
        *duration_seconds* records the producing run's wall clock."""
        with self._lock:
            info = self._open_round(round_id)
            if error_count is None:
                error_count = self.shard_stats(round_id)[0]
            responsive = self._conn.execute(
                f"SELECT COUNT(*) FROM {info.table_name}"
            ).fetchone()[0]
            table = info.table_name
            self._conn.execute(
                f"CREATE INDEX IF NOT EXISTS idx_{table}_ip ON {table} (ip)"
            )
            status = ROUND_DEGRADED if degraded else ROUND_COMPLETE
            self._conn.execute(
                "UPDATE rounds SET responsive_count = ?, degraded = ?,"
                " error_count = ?, round_status = ?, duration_seconds = ?"
                " WHERE round_id = ?",
                (responsive, int(degraded), error_count, status,
                 float(duration_seconds), round_id),
            )
            self._commit()
            return RoundInfo(
                round_id, info.timestamp, info.targets_probed, responsive,
                degraded=degraded, error_count=error_count, status=status,
                shard_size=info.shard_size,
                duration_seconds=float(duration_seconds),
            )

    # ------------------------------------------------------------------
    # recovery

    def open_rounds(self) -> list[RoundInfo]:
        cursor = self._conn.execute(
            f"SELECT {self._ROUND_COLUMNS} FROM rounds "
            "WHERE round_status = ? ORDER BY timestamp, round_id",
            (ROUND_IN_PROGRESS,),
        )
        return [self._round_info(row) for row in cursor.fetchall()]

    def completed_shards(self, round_id: int) -> set[int]:
        cursor = self._conn.execute(
            "SELECT shard_index FROM round_shards WHERE round_id = ?",
            (round_id,),
        )
        return {row[0] for row in cursor.fetchall()}

    def shard_stats(self, round_id: int) -> tuple[int, int]:
        row = self._conn.execute(
            "SELECT COALESCE(SUM(errors), 0), COALESCE(SUM(operations), 0) "
            "FROM round_shards WHERE round_id = ?",
            (round_id,),
        ).fetchone()
        return int(row[0]), int(row[1])

    # ------------------------------------------------------------------
    # shard journal & integrity

    def shard_journal(self, round_id: int) -> list[ShardJournalEntry]:
        cursor = self._conn.execute(
            "SELECT round_id, shard_index, record_count, errors,"
            " operations, checksum, quarantine_count"
            " FROM round_shards WHERE round_id = ? ORDER BY shard_index",
            (round_id,),
        )
        return [
            ShardJournalEntry(
                round_id=row["round_id"], shard_index=row["shard_index"],
                record_count=row["record_count"], errors=row["errors"],
                operations=row["operations"], checksum=row["checksum"],
                quarantine_count=row["quarantine_count"],
            )
            for row in cursor.fetchall()
        ]

    def shard_records(
        self, round_id: int, shard_index: int
    ) -> list[RoundRecord]:
        info = self._any_round(round_id)
        cursor = self._conn.execute(
            f"SELECT * FROM {info.table_name} WHERE shard_index = ? "
            "ORDER BY rowid",
            (shard_index,),
        )
        return [RoundRecord.from_row(row) for row in cursor.fetchall()]

    def shard_quarantine(
        self, round_id: int, shard_index: int
    ) -> list[QuarantineRecord]:
        cursor = self._conn.execute(
            "SELECT * FROM quarantine "
            "WHERE round_id = ? AND shard_index = ? ORDER BY entry_id",
            (round_id, shard_index),
        )
        return [QuarantineRecord.from_row(row) for row in cursor.fetchall()]

    def verify_round(self, round_id: int) -> RoundVerification:
        """Walk one round's shard journal and recompute every shard's
        checksum: reports missing shards (journal gaps in a finalized
        round), corrupt shards (digest or row-count mismatch), legacy
        shards with no digest, orphaned rows/quarantine entries not
        attributed to any journaled shard, and read models whose
        contents no longer match a refold of the base data."""
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
            if not self._table_has_column(info.table_name, "shard_index"):
                # Pre-checksum table: rows cannot be attributed.
                report.unverifiable = sorted(present)
                return report
            attributed_rows = 0
            attributed_quarantine = 0
            for entry in entries:
                rows = [
                    record.to_row()
                    for record in self.shard_records(
                        round_id, entry.shard_index
                    )
                ]
                attributed_rows += len(rows)
                attributed_quarantine += self._conn.execute(
                    "SELECT COUNT(*) FROM quarantine "
                    "WHERE round_id = ? AND shard_index = ?",
                    (round_id, entry.shard_index),
                ).fetchone()[0]
                if not entry.checksum:
                    report.unverifiable.append(entry.shard_index)
                    continue
                if (
                    len(rows) != entry.record_count
                    or shard_checksum(rows) != entry.checksum
                ):
                    report.corrupt.append(entry.shard_index)
                else:
                    report.verified += 1
            total_rows = self._conn.execute(
                f"SELECT COUNT(*) FROM {info.table_name}"
            ).fetchone()[0]
            total_quarantine = self.quarantine_count(round_id)
            report.orphan_rows = total_rows - attributed_rows
            report.orphan_quarantine = (
                total_quarantine - attributed_quarantine
            )
            self._audit_views(info, report)
            return report

    def _audit_views(
        self, info: RoundInfo, report: RoundVerification
    ) -> None:
        """Audit the three read models for one round against a refold
        of its base table, appending stale view names to
        ``report.view_issues``.  Rounds with no summary row (written
        before the views existed, or awaiting ``repro rebuild-views``)
        are skipped — absence is legacy, not corruption."""
        if not self._has_views or not self._folded(info.round_id):
            return
        table = info.table_name
        summary = self._conn.execute(
            "SELECT responsive, available, fetched, quarantined "
            "FROM view_round_summary WHERE round_id = ?",
            (info.round_id,),
        ).fetchone()
        expected = self._scan_counts(table)
        expected["quarantined"] = self._journal_quarantine(info.round_id)
        actual = {key: int(summary[key]) for key in expected}
        if actual != expected:
            report.view_issues.append("round_summary")
        expected_rows = [
            dict(zip(IP_HISTORY_COLUMNS, row))
            for row in self._conn.execute(
                f"SELECT {_LIGHT_SELECT} FROM {table}"
            )
        ]
        actual_rows = [
            dict(zip(IP_HISTORY_COLUMNS, row))
            for row in self._conn.execute(
                f"SELECT {', '.join(IP_HISTORY_COLUMNS)} "
                "FROM view_ip_history WHERE round_id = ?",
                (info.round_id,),
            )
        ]
        if rows_checksum(expected_rows) != rows_checksum(actual_rows):
            report.view_issues.append("ip_history")
        expected_agg = []
        for column in sorted(AGGREGATE_COLUMNS):
            expected_agg.extend(
                {"column_name": column, "value": row[0], "n": int(row[1])}
                for row in self._conn.execute(
                    f"SELECT {column}, COUNT(*) FROM {table} "
                    f"WHERE {column} IS NOT NULL GROUP BY {column}"
                )
            )
        actual_agg = [
            {"column_name": row[0], "value": row[1], "n": int(row[2])}
            for row in self._conn.execute(
                "SELECT column_name, value, n FROM view_cluster_agg "
                "WHERE round_id = ?",
                (info.round_id,),
            )
        ]
        if rows_checksum(expected_agg) != rows_checksum(actual_agg):
            report.view_issues.append("cluster_agg")

    def delete_partial(self, round_id: int) -> None:
        info = self._any_round(round_id)
        if info.status != ROUND_IN_PROGRESS:
            raise ValueError(
                f"round {round_id} is {info.status}, not a partial round"
            )
        self._conn.execute(f"DROP TABLE IF EXISTS {info.table_name}")
        self._conn.execute(
            "DELETE FROM round_shards WHERE round_id = ?", (round_id,)
        )
        self._conn.execute(
            "DELETE FROM rounds WHERE round_id = ?", (round_id,)
        )
        self._delete_view_rows(round_id)
        self._commit()

    def max_round_id(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(round_id), 0) FROM rounds"
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # quarantine (dead-letter)

    def add_quarantine(self, entry: QuarantineRecord) -> int:
        cursor = self._conn.execute(
            "INSERT INTO quarantine "
            "(round_id, ip, timestamp, stage, verdict, error_class,"
            " error, payload, replayed) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (entry.round_id, entry.ip, entry.timestamp, entry.stage,
             entry.verdict, entry.error_class, entry.error,
             entry.payload, int(entry.replayed)),
        )
        self._commit()
        return int(cursor.lastrowid)

    def quarantine_rows(
        self,
        round_id: int | None = None,
        *,
        include_replayed: bool = True,
    ) -> list[QuarantineRecord]:
        sql = "SELECT * FROM quarantine"
        clauses, params = [], []
        if round_id is not None:
            clauses.append("round_id = ?")
            params.append(round_id)
        if not include_replayed:
            clauses.append("replayed = 0")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY entry_id"
        cursor = self._conn.execute(sql, params)
        return [QuarantineRecord.from_row(row) for row in cursor.fetchall()]

    def quarantine_count(self, round_id: int | None = None) -> int:
        if round_id is None:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM quarantine"
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM quarantine WHERE round_id = ?",
                (round_id,),
            ).fetchone()
        return int(row[0])

    def mark_quarantine_replayed(self, entry_id: int) -> None:
        self._conn.execute(
            "UPDATE quarantine SET replayed = 1 WHERE entry_id = ?",
            (entry_id,),
        )
        self._commit()

    def update_features(
        self, round_id: int, ip: int, features: PageFeatures
    ) -> bool:
        with self._lock:
            info = self._any_round(round_id)
            old = self._conn.execute(
                f"SELECT {', '.join(_REPLAYED_AGG_COLUMNS)} "
                f"FROM {info.table_name} WHERE ip = ?",
                (ip,),
            ).fetchone()
            cursor = self._conn.execute(
                f"UPDATE {info.table_name} SET"
                " powered_by = ?, description = ?, header_string = ?,"
                " html_length = ?, title = ?, template = ?, server = ?,"
                " keywords = ?, analytics_id = ?, simhash = ?"
                " WHERE ip = ?",
                (features.powered_by, features.description,
                 features.header_string, features.html_length, features.title,
                 features.template, features.server, features.keywords,
                 features.analytics_id, f"{features.simhash:024x}", ip),
            )
            if (
                cursor.rowcount > 0
                and self._table_has_column(info.table_name, "shard_index")
            ):
                owner = self._conn.execute(
                    f"SELECT shard_index FROM {info.table_name} WHERE ip = ?",
                    (ip,),
                ).fetchone()
                if owner is not None:
                    rows = [
                        record.to_row()
                        for record in self.shard_records(round_id, owner[0])
                    ]
                    self._conn.execute(
                        "UPDATE round_shards SET checksum = ? "
                        "WHERE round_id = ? AND shard_index = ? "
                        "AND checksum != ''",
                        (shard_checksum(rows), round_id, owner[0]),
                    )
            if cursor.rowcount > 0 and old is not None:
                self._refold_replayed_row(info, ip, old)
            self._commit()
            return cursor.rowcount > 0

    def _refold_replayed_row(
        self, info: RoundInfo, ip: int, old: sqlite3.Row
    ) -> None:
        """Re-fold the read models after ``update_features`` changed a
        row in place: replace the IP's light history row and shift the
        cluster-aggregate counts from the old feature values to the new
        ones (the round summary is unaffected — replay never changes
        fetch_status or status_code)."""
        if not self._folded(info.round_id):
            return
        row = self._conn.execute(
            f"SELECT {_LIGHT_SELECT} FROM {info.table_name} WHERE ip = ?",
            (ip,),
        ).fetchone()
        if row is None:
            return
        self._conn.execute(
            "INSERT OR REPLACE INTO view_ip_history "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            tuple(row),
        )
        new_row = self._conn.execute(
            f"SELECT {', '.join(_REPLAYED_AGG_COLUMNS)} "
            f"FROM {info.table_name} WHERE ip = ?",
            (ip,),
        ).fetchone()
        for column in _REPLAYED_AGG_COLUMNS:
            old_value, new_value = old[column], new_row[column]
            if old_value == new_value:
                continue
            if old_value is not None:
                self._conn.execute(
                    "UPDATE view_cluster_agg SET n = n - 1 WHERE"
                    " round_id = ? AND column_name = ? AND value = ?",
                    (info.round_id, column, old_value),
                )
                self._conn.execute(
                    "DELETE FROM view_cluster_agg WHERE round_id = ?"
                    " AND column_name = ? AND value = ? AND n <= 0",
                    (info.round_id, column, old_value),
                )
            if new_value is not None:
                self._conn.execute(
                    "INSERT INTO view_cluster_agg VALUES (?, ?, ?, 1) "
                    "ON CONFLICT(round_id, column_name, value) "
                    "DO UPDATE SET n = n + 1",
                    (info.round_id, column, new_value),
                )

    # ------------------------------------------------------------------
    # campaign metadata

    def set_meta(self, key: str, value: str) -> None:
        with self._lock:
            self._conn.execute(
                "INSERT INTO campaign_meta VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                (key, value),
            )
            self._commit()

    def get_meta(self, key: str, default: str | None = None) -> str | None:
        row = self._conn.execute(
            "SELECT value FROM campaign_meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row["value"]

    def meta(self) -> dict[str, str]:
        cursor = self._conn.execute("SELECT key, value FROM campaign_meta")
        return {row["key"]: row["value"] for row in cursor.fetchall()}

    # ------------------------------------------------------------------
    # reads

    _ROUND_COLUMNS = (
        "round_id, timestamp, targets_probed, responsive_count, "
        "degraded, error_count, round_status, shard_size, duration_seconds"
    )

    @staticmethod
    def _round_info(row) -> RoundInfo:
        return RoundInfo(
            row["round_id"], row["timestamp"], row["targets_probed"],
            row["responsive_count"],
            degraded=bool(row["degraded"]), error_count=row["error_count"],
            status=row["round_status"], shard_size=row["shard_size"],
            duration_seconds=row["duration_seconds"],
        )

    def rounds(self) -> list[RoundInfo]:
        cursor = self._conn.execute(
            f"SELECT {self._ROUND_COLUMNS} FROM rounds "
            "WHERE round_status != ? ORDER BY timestamp, round_id",
            (ROUND_IN_PROGRESS,),
        )
        return [self._round_info(row) for row in cursor.fetchall()]

    def round_info(self, round_id: int) -> RoundInfo:
        info = self._any_round(round_id)
        if info.status == ROUND_IN_PROGRESS:
            raise KeyError(f"round {round_id} is still in progress")
        return info

    def _any_round(self, round_id: int) -> RoundInfo:
        cursor = self._conn.execute(
            f"SELECT {self._ROUND_COLUMNS} FROM rounds WHERE round_id = ?",
            (round_id,),
        )
        row = cursor.fetchone()
        if row is None:
            raise KeyError(f"no such round: {round_id}")
        return self._round_info(row)

    def _open_round(self, round_id: int) -> RoundInfo:
        info = self._any_round(round_id)
        if info.status != ROUND_IN_PROGRESS:
            raise ValueError(f"round {round_id} is not open for writing")
        return info

    def _folded(self, round_id: int) -> bool:
        """True when the round has a summary row — i.e. its read models
        are being maintained (rounds written before the views existed
        have none until ``repro rebuild-views``)."""
        return self._conn.execute(
            "SELECT 1 FROM view_round_summary WHERE round_id = ?",
            (round_id,),
        ).fetchone() is not None

    def _all_finalized_folded(self) -> bool:
        """True when every finalized round has a summary row, so the
        cross-round ``view_ip_history`` read is complete (a mixed
        legacy/new database must fall back to base scans)."""
        total = self._conn.execute(
            "SELECT COUNT(*) FROM rounds WHERE round_status != ?",
            (ROUND_IN_PROGRESS,),
        ).fetchone()[0]
        folded = self._conn.execute(
            "SELECT COUNT(*) FROM view_round_summary s"
            " JOIN rounds r ON r.round_id = s.round_id"
            " WHERE r.round_status != ?",
            (ROUND_IN_PROGRESS,),
        ).fetchone()[0]
        return int(folded) == int(total)

    def _scan_counts(self, table: str) -> dict[str, int]:
        row = self._conn.execute(
            "SELECT COUNT(*),"
            " COALESCE(SUM(CASE WHEN fetch_status = 'ok'"
            "   AND status_code IS NOT NULL THEN 1 ELSE 0 END), 0),"
            " COALESCE(SUM(CASE WHEN fetch_status != 'not-attempted'"
            "   THEN 1 ELSE 0 END), 0) "
            f"FROM {table}"
        ).fetchone()
        return {
            "responsive": int(row[0]),
            "available": int(row[1]),
            "fetched": int(row[2]),
        }

    def _journal_quarantine(self, round_id: int) -> int:
        """Quarantine entries journaled with the round's shards (the
        summary's ``quarantined`` semantics — tool-added entries live
        outside the shard protocol)."""
        if not self._table_exists("round_shards"):
            return 0
        row = self._conn.execute(
            "SELECT COALESCE(SUM(quarantine_count), 0) FROM round_shards "
            "WHERE round_id = ?",
            (round_id,),
        ).fetchone()
        return int(row[0])

    def round_stats(self, round_id: int) -> dict[str, int]:
        with self._lock:
            info = self._any_round(round_id)
            if self._has_views:
                row = self._conn.execute(
                    "SELECT responsive, available, fetched, quarantined "
                    "FROM view_round_summary WHERE round_id = ?",
                    (round_id,),
                ).fetchone()
                if row is not None:
                    return {
                        key: int(row[key])
                        for key in ("responsive", "available", "fetched",
                                    "quarantined")
                    }
            stats = self._scan_counts(info.table_name)
            stats["quarantined"] = self._journal_quarantine(round_id)
            return stats

    def aggregate_column(
        self, round_id: int, column: str, *, limit: int = 20
    ) -> list[tuple[str, int]]:
        if column not in AGGREGATE_COLUMNS:
            raise ValueError(f"cannot aggregate by column {column!r}")
        if limit <= 0:
            raise ValueError("limit must be positive")
        with self._lock:
            info = self.round_info(round_id)
            if self._has_views and self._folded(round_id):
                cursor = self._conn.execute(
                    "SELECT value, n FROM view_cluster_agg "
                    "WHERE round_id = ? AND column_name = ? "
                    "ORDER BY n DESC, value LIMIT ?",
                    (round_id, column, limit),
                )
                return [(str(row[0]), int(row[1])) for row in cursor]
            cursor = self._conn.execute(
                f"SELECT {column}, COUNT(*) AS n FROM {info.table_name} "
                f"WHERE {column} IS NOT NULL "
                f"GROUP BY {column} ORDER BY n DESC, {column} LIMIT ?",
                (limit,),
            )
            return [(str(row[0]), int(row[1])) for row in cursor.fetchall()]

    def records(self, round_id: int) -> Iterator[RoundRecord]:
        info = self.round_info(round_id)
        cursor = self._conn.execute(f"SELECT * FROM {info.table_name}")
        for row in cursor:
            yield RoundRecord.from_row(row)

    def columns(
        self, round_id: int, names: Sequence[str]
    ) -> Iterator[tuple]:
        names = _base.check_column_names(names)
        table = self.round_info(round_id).table_name
        # Tables written before these columns existed lack them;
        # from_row reads them as None, so the projection does too.
        absent = {
            name for name in _LATE_COLUMNS
            if name in names and not self._table_has_column(table, name)
        }
        select = ", ".join(
            "NULL" if name in absent else name for name in names
        )
        cursor = self._conn.cursor()
        cursor.row_factory = None      # plain tuples, not sqlite3.Row
        # Without the explicit order a narrow projection is planned as
        # a scan of the covering (ip) index: ip order, not commit order.
        return cursor.execute(f"SELECT {select} FROM {table} ORDER BY rowid")

    def record(self, round_id: int, ip: int) -> RoundRecord | None:
        info = self.round_info(round_id)
        cursor = self._conn.execute(
            f"SELECT * FROM {info.table_name} WHERE ip = ?", (ip,)
        )
        row = cursor.fetchone()
        return RoundRecord.from_row(row) if row else None

    def history(self, ip: int) -> list[RoundRecord]:
        history: list[RoundRecord] = []
        for info in self.rounds():
            cursor = self._conn.execute(
                f"SELECT * FROM {info.table_name} WHERE ip = ?", (ip,)
            )
            row = cursor.fetchone()
            if row is not None:
                history.append(RoundRecord.from_row(row))
        return history

    def ip_history_rows(self, ip: int) -> list[dict]:
        """One clustered-index range scan over ``view_ip_history``
        (finalized rounds only, chronological order) instead of a
        per-round full-row lookup — the serving layer's hot path."""
        with self._lock:
            if self._has_views and self._all_finalized_folded():
                columns = ", ".join(f"h.{n}" for n in IP_HISTORY_COLUMNS)
                cursor = self._conn.execute(
                    f"SELECT {columns} FROM view_ip_history h"
                    " JOIN rounds r ON r.round_id = h.round_id"
                    " WHERE h.ip = ? AND r.round_status != ?"
                    " ORDER BY h.timestamp, h.round_id",
                    (ip, ROUND_IN_PROGRESS),
                )
                return [
                    dict(zip(IP_HISTORY_COLUMNS, row)) for row in cursor
                ]
            return super().ip_history_rows(ip)

    def responsive_ips(self, round_id: int) -> set[int]:
        info = self.round_info(round_id)
        cursor = self._conn.execute(f"SELECT ip FROM {info.table_name}")
        return {row[0] for row in cursor.fetchall()}

    # ------------------------------------------------------------------
    # read models

    def rebuild_views(self) -> int:
        """Drop and refold every read model from the base tables — the
        ``repro rebuild-views`` escape hatch, and the migration path
        for databases written before the views existed.  Covers open
        rounds too (folding tracks writing, not finalization).  One
        transaction: a crash mid-rebuild rolls back to the old views."""
        with self._lock:
            if self.readonly:
                raise ValueError("store is read-only")
            try:
                for table in _VIEW_TABLES:
                    self._conn.execute(f"DELETE FROM {table}")
                rows = self._conn.execute(
                    f"SELECT {self._ROUND_COLUMNS} FROM rounds "
                    "ORDER BY timestamp, round_id"
                ).fetchall()
                refolded = 0
                for row in rows:
                    info = self._round_info(row)
                    if not self._table_exists(info.table_name):
                        continue
                    self._refold_round(info)
                    refolded += 1
                self._commit()
            except BaseException:
                self._conn.rollback()
                raise
            return refolded

    def _refold_round(self, info: RoundInfo) -> None:
        table = info.table_name
        self._conn.execute(
            f"INSERT OR REPLACE INTO view_ip_history "
            f"SELECT {_LIGHT_SELECT} FROM {table}"
        )
        counts = self._scan_counts(table)
        self._conn.execute(
            "INSERT OR REPLACE INTO view_round_summary "
            "VALUES (?, ?, ?, ?, ?)",
            (info.round_id, counts["responsive"], counts["available"],
             counts["fetched"], self._journal_quarantine(info.round_id)),
        )
        for column in sorted(AGGREGATE_COLUMNS):
            self._conn.execute(
                f"INSERT OR REPLACE INTO view_cluster_agg "
                f"SELECT ?, ?, {column}, COUNT(*) FROM {table} "
                f"WHERE {column} IS NOT NULL GROUP BY {column}",
                (info.round_id, column),
            )
        self._note_view_fold()

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        self._conn.close()
