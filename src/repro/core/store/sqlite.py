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
Every committed shard journals a **checksum** of its stored row tuples
(see :func:`~repro.core.store.base.shard_checksum`), where each body is
represented by its digest; :meth:`MeasurementStore.verify_round`
re-hashes the bodies.  Each row carries the ``shard_index`` it was
committed under, so rows can be attributed to their journal entry
regardless of the order shards landed in.

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

One fold over the stored row tuples defines all three (:func:`_fold`).
The write path stages it per shard; :meth:`verify_round` accumulates
it over the tuples it checksums and compares the stored views;
``rebuild_views()`` (the ``repro rebuild-views`` repair) replays it
over every round's shard journal; ``update_features`` retracts the old
row's fold and applies the new one's.

Store format
------------
A round table holds one row per responsive IP in the columns of
:data:`~repro.core.store.base.COLUMNS`, except that the page body is
replaced by ``body_digest`` (its :func:`~repro.core.records.digest_of`,
a 16-byte BLOB; NULL for a row without a body).  One ``bodies(digest,
body)`` table holds each distinct body once for the whole campaign: a
shard inserts its new bodies (``INSERT OR IGNORE``) in its own
transaction, and every full-row read joins them back (:func:`_rows_sql`).
Checksums and folds are over the stored tuples (:meth:`RoundRecord.row`,
digest for body), the same ones the writer inserts.  Most pages
repeat from round to round, so a round table costs a few hundred bytes
a row and the bodies grow with the distinct pages, not with the rounds.

Every round this engine writes is folded, so reads go to the views
only: a round with no summary row reads as zero or empty.  Older
layouts are refused with :class:`UnsupportedStoreFormat` before any DDL
runs — there are no migrations: a database whose ``rounds`` table holds
rows but which has no ``view_round_summary`` table (written before the
materialized read models), one whose round tables still carry a
``body`` column (written before bodies were stored once), and one with
rounds whose ``PRAGMA user_version`` is below :data:`STORE_FORMAT`
(checksums over decoded rows, body text included).
"""

from __future__ import annotations

import math
import operator
import random
import sqlite3
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Iterator, Mapping, Sequence

from ..backoff import backoff_delay
from ..records import (
    PageFeatures,
    QuarantineRecord,
    RoundRecord,
    is_available,
)
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
    UnsupportedStoreFormat,
    bad_bodies,
    encode_shard,
    shard_checksum,
)

__all__ = ["MeasurementStore", "UnsupportedStoreFormat"]

_VIEW_TABLES = ("view_ip_history", "view_round_summary", "view_cluster_agg")

_SUMMARY_COLUMNS = ("responsive", "available", "fetched", "quarantined")

_AGG_COLUMNS = tuple(sorted(AGGREGATE_COLUMNS))

#: Where a round table's ``body_digest`` sits: the position of
#: :data:`COLUMNS`' ``body``.
_BODY_INDEX = COLUMN_NAMES.index("body")

#: A round table's stored columns, in :data:`COLUMN_NAMES` order.
_ROW_COLUMNS = tuple(
    ("body_digest", "BLOB") if name == "body" else (name, sql)
    for name, sql in COLUMNS
)

#: The select list that reads a round table's rows back as the tuples
#: :meth:`RoundRecord.row` built.
_ROW_SELECT = ", ".join(name for name, _ in _ROW_COLUMNS)

#: The store format, kept in sqlite's ``PRAGMA user_version``: 1 since
#: shard checksums hash the row tuples (files from before say 0).
STORE_FORMAT = 1

#: Tuple positions the fold reads.
_IP = COLUMN_NAMES.index("ip")
_status_of = operator.itemgetter(
    COLUMN_NAMES.index("fetch_status"), COLUMN_NAMES.index("status_code")
)
_AGG_INDICES = tuple(
    (column, COLUMN_NAMES.index(column)) for column in _AGG_COLUMNS
)
_history_of = operator.itemgetter(
    *(COLUMN_NAMES.index(name) for name in IP_HISTORY_COLUMNS)
)
#: ``view_ip_history`` columns a bodyless row keeps: the ones before
#: server, title and template, which :func:`~repro.core.store.base.
#: light_row` nulls out.
_BODYLESS_KEPT = IP_HISTORY_COLUMNS.index("server")
_BODYLESS_TAIL = (None,) * (len(IP_HISTORY_COLUMNS) - _BODYLESS_KEPT)


def _is_round_table(name: str) -> bool:
    return name.startswith("round_") and name[6:].isdigit()


def _check_format(conn: sqlite3.Connection) -> None:
    """Refuse a database with rounds but no read models, whose round
    tables store bodies inline (one round table is inspected), or whose
    ``user_version`` predates :data:`STORE_FORMAT`.  A file with some
    tables and no rounds — a partition journal torn while it was being
    created — passes, and a writer completes its schema."""
    tables = [
        row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    ]
    has_rounds = "rounds" in tables and conn.execute(
        "SELECT 1 FROM rounds LIMIT 1"
    ).fetchone() is not None
    if has_rounds and "view_round_summary" not in tables:
        raise UnsupportedStoreFormat(
            "unsupported store format: its rounds were written before the "
            "materialized read models were added (no view_round_summary "
            "table); this version opens only stores written with the read "
            "models — re-run the campaign to rebuild it"
        )
    table = next(filter(_is_round_table, tables), None)
    if table is not None and any(
        row[1] == "body" for row in conn.execute(f"PRAGMA table_info({table})")
    ):
        raise UnsupportedStoreFormat(
            "unsupported store format: its round tables store page bodies "
            "inline (a body column), as stores did before each body was "
            "kept once in a bodies table; this version opens only stores "
            "with the bodies table — re-run the campaign to rebuild it"
        )
    version = conn.execute("PRAGMA user_version").fetchone()[0]
    if has_rounds and version < STORE_FORMAT:
        raise UnsupportedStoreFormat(
            f"unsupported store format {version}: its shard checksums "
            "hash decoded rows with their body text, as stores did before "
            f"format {STORE_FORMAT} hashed the stored row tuples; this "
            "version opens only that format — re-run the campaign to "
            "rebuild it"
        )


#: How a read of round table ``t`` gets its rows' bodies, as ``b.body``.
_JOIN_BODIES = "LEFT JOIN bodies b ON b.digest = t.body_digest"


def _rows_sql(table: str, tail: str = "") -> str:
    """The full-row read of round table *table*: every stored column
    (aliased ``t``) with the body joined back in as ``body``, the shape
    :meth:`RoundRecord.from_row` decodes.  *tail* adds WHERE / ORDER
    BY clauses over ``t``."""
    return f"SELECT t.*, b.body AS body FROM {table} t {_JOIN_BODIES} {tail}"


def _fold(
    rows: Sequence[tuple],
) -> tuple[dict[int, tuple], dict[str, int], Counter]:
    """What a batch of stored row tuples contributes to the read models
    — the only definition of their contents: ``view_ip_history`` rows
    by ip (:func:`~repro.core.store.base.light_row`'s projection),
    ``view_round_summary`` increments (bar ``quarantined``, which the
    shard journal counts) and ``view_cluster_agg`` counts by
    ``(column, value)``.  Each part adds up across batches."""
    history = {}
    for row in rows:
        light = _history_of(row)
        if row[_BODY_INDEX] is None:
            light = light[:_BODYLESS_KEPT] + _BODYLESS_TAIL
        history[row[_IP]] = light
    # Counted in C per distinct value; Python sees only the distinct ones.
    statuses = Counter(map(_status_of, rows))
    counts = {
        "responsive": len(rows),
        "available": sum(
            n for (fetch_status, status_code), n in statuses.items()
            if is_available(fetch_status, status_code)
        ),
        "fetched": sum(
            n for (fetch_status, _), n in statuses.items()
            if fetch_status != "not-attempted"
        ),
    }
    tallies: Counter = Counter()
    for column, index in _AGG_INDICES:
        for value, n in Counter(map(operator.itemgetter(index), rows)).items():
            if value is not None:
                tallies[column, value] = n
    return history, counts, tallies


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
    :func:`_check_format` runs before either shape touches the file.
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
    try:
        _check_format(conn)
    except BaseException:
        conn.close()
        raise
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
            return      # no schema DDL on a reader
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
        # Each distinct page body, once per campaign, under its digest
        # (round tables carry the digest).
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS bodies ("
            "  digest BLOB PRIMARY KEY,"
            "  body TEXT NOT NULL"
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
        # one clustered B-tree range scan over light rows.
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
        # _check_format let this file through, so it has no rounds or
        # is already in this format.
        self._conn.execute(f"PRAGMA user_version = {STORE_FORMAT}")
        self._commit()

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
                if row["round_status"] == ROUND_IN_PROGRESS:
                    return self._any_round(round_id)    # resume: keep shards
                raise ValueError(f"round {round_id} is already finalized")
            columns_sql = ", ".join(
                f"{name} {sql}" for name, sql in _ROW_COLUMNS
            )
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
        """Commit one encoded shard of a round atomically.

        Idempotent: a shard index that already committed is skipped
        (returns False).  The rows, the shard's *quarantine* entries,
        the shard journal entry, and the read-model fold land in one
        transaction — a crash mid-write rolls the whole shard back,
        and the committed-shard skip covers quarantine entries and the
        fold too (no duplicates on resume)."""
        return bool(self._write(round_id, [
            (shard_index, rows, bodies, errors, operations, quarantine)
        ]))

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
        return self._write(round_id, (
            (shard.shard_index, *encode_shard(shard.records),
             shard.errors, shard.operations, shard.quarantine)
            for shard in shards
        ))

    def _write(self, round_id: int, shards: Iterable[tuple]) -> int:
        """Stage each encoded shard (:meth:`_insert_rows`' arguments)
        and commit them as one transaction; an error rolls all back."""
        with self._lock:
            info = self._open_round(round_id)
            started = time.perf_counter()
            committed = 0
            try:
                for shard in shards:
                    committed += self._insert_rows(info, *shard)
                self._commit()
            except BaseException:
                self._conn.rollback()
                raise
            if committed:
                self._note_flush(committed, time.perf_counter() - started)
            return committed

    def _insert_rows(
        self,
        info: RoundInfo,
        shard_index: int,
        rows: Sequence[tuple],
        bodies: Mapping[bytes, str],
        errors: int,
        operations: int,
        quarantine: Iterable[QuarantineRecord],
    ) -> bool:
        """Stage one shard's inserts on the open transaction (no
        commit); returns False for an already-committed shard index.
        The same row tuples are inserted, checksummed and folded."""
        already = self._conn.execute(
            "SELECT 1 FROM round_shards WHERE round_id = ? AND shard_index = ?",
            (info.round_id, shard_index),
        ).fetchone()
        if already is not None:
            return False
        entries = list(quarantine)
        self._conn.executemany(
            "INSERT OR IGNORE INTO bodies VALUES (?, ?)", bodies.items()
        )
        # Each row carries the shard index it was committed under so
        # verification/merge can attribute rows to journal entries in
        # any landing order (resume, partition merge, salvage).
        self._conn.executemany(
            f"INSERT INTO {info.table_name} ({_ROW_SELECT}, shard_index) "
            f"VALUES ({', '.join('?' for _ in _ROW_COLUMNS)}, "
            f"{int(shard_index)})",
            rows,
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
            (info.round_id, shard_index, len(rows), errors, operations,
             shard_checksum(rows), len(entries)),
        )
        self._fold_rows(info.round_id, rows, len(entries))
        self._note_view_fold()
        return True

    def _fold_rows(
        self,
        round_id: int,
        rows: Sequence[tuple],
        quarantined: int,
        *,
        sign: int = 1,
    ) -> None:
        """Stage :func:`_fold` of *rows* into the three read models on
        the open transaction (a shard and its fold are one atomic
        unit).  ``sign=-1`` retracts rows folded earlier.  The summary
        is upserted even for an empty shard."""
        history, counts, tallies = _fold(rows)
        if sign > 0:
            self._conn.executemany(
                "INSERT OR REPLACE INTO view_ip_history "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                history.values(),
            )
        else:
            self._conn.executemany(
                "DELETE FROM view_ip_history WHERE ip = ? AND round_id = ?",
                ((ip, round_id) for ip in history),
            )
        self._conn.execute(
            "INSERT INTO view_round_summary VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(round_id) DO UPDATE SET"
            " responsive = responsive + excluded.responsive,"
            " available = available + excluded.available,"
            " fetched = fetched + excluded.fetched,"
            " quarantined = quarantined + excluded.quarantined",
            (round_id, sign * counts["responsive"],
             sign * counts["available"], sign * counts["fetched"],
             sign * quarantined),
        )
        self._conn.executemany(
            "INSERT INTO view_cluster_agg VALUES (?, ?, ?, ?) "
            "ON CONFLICT(round_id, column_name, value) "
            "DO UPDATE SET n = n + excluded.n",
            (
                (round_id, column, value, sign * count)
                for (column, value), count in tallies.items()
            ),
        )
        if sign < 0:
            self._conn.execute(
                "DELETE FROM view_cluster_agg WHERE round_id = ? AND n <= 0",
                (round_id,),
            )

    def _orphan_digests(self) -> list[bytes]:
        """Digests in ``bodies`` that no round table references."""
        referenced: set[bytes] = set()
        for (table,) in self._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchall():
            if _is_round_table(table):
                referenced.update(
                    row[0] for row in self._conn.execute(
                        f"SELECT DISTINCT body_digest FROM {table}"
                    )
                )
        return [
            row[0] for row in self._conn.execute("SELECT digest FROM bodies")
            if row[0] not in referenced
        ]

    def orphan_bodies(self) -> int:
        with self._lock:
            return len(self._orphan_digests())

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
            _rows_sql(
                info.table_name,
                "WHERE t.shard_index = ? ORDER BY t.rowid",
            ),
            (shard_index,),
        )
        return list(map(RoundRecord.from_row, cursor))

    def shard_rows(
        self, round_id: int, shard_index: int
    ) -> tuple[list[tuple], dict[bytes, str | None]]:
        """One committed shard as it is stored: its row tuples in
        insertion order, and the bodies they reference by digest (None
        for a digest with no stored body) — what the partition-journal
        merge checks and hands to :meth:`write_rows`."""
        table = self._any_round(round_id).table_name
        return (
            self._stored_rows(table, shard_index),
            self._referenced_bodies(table, shard_index),
        )

    def _stored_rows(self, table: str, shard_index: int) -> list[tuple]:
        """One shard's stored row tuples, insertion order."""
        cursor = self._conn.cursor()
        cursor.row_factory = None
        return cursor.execute(
            f"SELECT {_ROW_SELECT} FROM {table} "
            "WHERE shard_index = ? ORDER BY rowid",
            (shard_index,),
        ).fetchall()

    def _referenced_bodies(
        self, table: str, shard_index: int | None = None
    ) -> dict[bytes, str | None]:
        """The bodies round table *table* (or one of its shards)
        references, by digest; None where no body is stored."""
        where = "" if shard_index is None else "AND shard_index = ?"
        params = () if shard_index is None else (shard_index,)
        return dict(self._conn.execute(
            "SELECT d.body_digest, b.body FROM (SELECT DISTINCT body_digest"
            f" FROM {table} WHERE body_digest IS NOT NULL {where}) d"
            " LEFT JOIN bodies b ON b.digest = d.body_digest",
            params,
        ).fetchall())

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
        checksum from its stored row tuples: reports missing shards
        (journal gaps in a finalized round), corrupt shards (digest or
        row-count mismatch, or a referenced body missing or no longer
        hashing to its digest), the rows with a missing body, the
        corrupt bodies, orphaned rows/quarantine entries not attributed
        to any journaled shard, and read models whose contents differ
        from the fold of the same tuples."""
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
            bodies = self._referenced_bodies(info.table_name)
            bad = bad_bodies(bodies)
            missing = {digest for digest in bad if bodies[digest] is None}
            report.corrupt_bodies = len(bad) - len(missing)
            attributed_rows = 0
            attributed_quarantine = 0
            history: dict[int, tuple] = {}
            summary: Counter = Counter()
            agg: Counter = Counter()
            for entry in entries:
                rows = self._stored_rows(info.table_name, entry.shard_index)
                damaged = sum(1 for row in rows if row[_BODY_INDEX] in bad)
                report.missing_bodies += sum(
                    1 for row in rows if row[_BODY_INDEX] in missing
                )
                attributed_rows += len(rows)
                attributed_quarantine += self._conn.execute(
                    "SELECT COUNT(*) FROM quarantine "
                    "WHERE round_id = ? AND shard_index = ?",
                    (round_id, entry.shard_index),
                ).fetchone()[0]
                if (
                    damaged
                    or len(rows) != entry.record_count
                    or shard_checksum(rows) != entry.checksum
                ):
                    report.corrupt.append(entry.shard_index)
                else:
                    report.verified += 1
                shard_history, counts, tallies = _fold(rows)
                history.update(shard_history)
                summary.update(counts, quarantined=entry.quarantine_count)
                agg.update(tallies)
            total_rows = self._conn.execute(
                f"SELECT COUNT(*) FROM {info.table_name}"
            ).fetchone()[0]
            total_quarantine = self.quarantine_count(round_id)
            report.orphan_rows = total_rows - attributed_rows
            report.orphan_quarantine = (
                total_quarantine - attributed_quarantine
            )
            report.view_issues = self._stale_views(
                round_id, history, summary, agg
            )
            return report

    def _stale_views(
        self,
        round_id: int,
        history: dict[int, tuple],
        summary: Counter,
        agg: Counter,
    ) -> list[str]:
        """Names of the round's read models whose stored contents differ
        from the fold of its journaled rows (a missing summary row
        reads as zeros)."""
        stale = []
        stored = self._conn.execute(
            f"SELECT {', '.join(_SUMMARY_COLUMNS)} "
            "FROM view_round_summary WHERE round_id = ?",
            (round_id,),
        ).fetchone()
        if tuple(stored or (0,) * len(_SUMMARY_COLUMNS)) != tuple(
            summary[key] for key in _SUMMARY_COLUMNS
        ):
            stale.append("round_summary")
        stored_history = {
            row[0]: tuple(row)
            for row in self._conn.execute(
                f"SELECT {', '.join(IP_HISTORY_COLUMNS)} "
                "FROM view_ip_history WHERE round_id = ?",
                (round_id,),
            )
        }
        if stored_history != history:
            stale.append("ip_history")
        stored_agg = {
            (row[0], row[1]): row[2]
            for row in self._conn.execute(
                "SELECT column_name, value, n FROM view_cluster_agg "
                "WHERE round_id = ?",
                (round_id,),
            )
        }
        if stored_agg != dict(agg):
            stale.append("cluster_agg")
        return stale

    def max_round_id(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(round_id), 0) FROM rounds"
        ).fetchone()
        return int(row[0])

    # ------------------------------------------------------------------
    # quarantine (dead-letter)

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
        """Overwrite one row's feature columns, re-journal its shard's
        checksum, and refold the read models: the old row's fold is
        retracted and the new row's applied, both over the stored
        tuples :meth:`verify_round` and :meth:`rebuild_views` fold."""
        with self._lock:
            table = self._any_round(round_id).table_name
            cursor = self._conn.cursor()
            cursor.row_factory = None
            old = cursor.execute(
                f"SELECT {_ROW_SELECT}, shard_index FROM {table} WHERE ip = ?",
                (ip,),
            ).fetchone()
            if old is None:
                return False
            self._conn.execute(
                f"UPDATE {table} SET"
                " powered_by = ?, description = ?, header_string = ?,"
                " html_length = ?, title = ?, template = ?, server = ?,"
                " keywords = ?, analytics_id = ?, simhash = ?"
                " WHERE ip = ?",
                (features.powered_by, features.description,
                 features.header_string, features.html_length, features.title,
                 features.template, features.server, features.keywords,
                 features.analytics_id, f"{features.simhash:024x}", ip),
            )
            shard = old[-1]
            rows = self._stored_rows(table, shard)
            self._conn.execute(
                "UPDATE round_shards SET checksum = ? "
                "WHERE round_id = ? AND shard_index = ?",
                (shard_checksum(rows), round_id, shard),
            )
            self._fold_rows(round_id, [old[:-1]], 0, sign=-1)
            self._fold_rows(
                round_id, [row for row in rows if row[_IP] == ip], 0
            )
            self._commit()
            return True

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

    def round_stats(self, round_id: int) -> dict[str, int]:
        with self._lock:
            self._any_round(round_id)
            row = self._conn.execute(
                f"SELECT {', '.join(_SUMMARY_COLUMNS)} "
                "FROM view_round_summary WHERE round_id = ?",
                (round_id,),
            ).fetchone()
            return {
                key: int(row[key]) if row is not None else 0
                for key in _SUMMARY_COLUMNS
            }

    def aggregate_column(
        self, round_id: int, column: str, *, limit: int = 20
    ) -> list[tuple[str, int]]:
        if column not in AGGREGATE_COLUMNS:
            raise ValueError(f"cannot aggregate by column {column!r}")
        if limit <= 0:
            raise ValueError("limit must be positive")
        with self._lock:
            self.round_info(round_id)
            cursor = self._conn.execute(
                "SELECT value, n FROM view_cluster_agg "
                "WHERE round_id = ? AND column_name = ? "
                "ORDER BY n DESC, value LIMIT ?",
                (round_id, column, limit),
            )
            return [(str(row[0]), int(row[1])) for row in cursor]

    def records(self, round_id: int) -> Iterator[RoundRecord]:
        info = self.round_info(round_id)
        cursor = self._conn.execute(_rows_sql(info.table_name))
        for row in cursor:
            yield RoundRecord.from_row(row)

    def columns(
        self, round_id: int, names: Sequence[str]
    ) -> Iterator[tuple]:
        names = _base.check_column_names(names)
        table = self.round_info(round_id).table_name
        cursor = self._conn.cursor()
        cursor.row_factory = None      # plain tuples, not sqlite3.Row
        # Only a read that asks for the body text joins ``bodies``.
        # Without the explicit order a narrow projection is planned as
        # a scan of the covering (ip) index: ip order, not commit order.
        select = ", ".join(
            "b.body" if name == "body" else f"t.{name}" for name in names
        )
        join = _JOIN_BODIES if "body" in names else ""
        return cursor.execute(
            f"SELECT {select} FROM {table} t {join} ORDER BY t.rowid"
        )

    def record(self, round_id: int, ip: int) -> RoundRecord | None:
        info = self.round_info(round_id)
        cursor = self._conn.execute(
            _rows_sql(info.table_name, "WHERE t.ip = ?"), (ip,)
        )
        row = cursor.fetchone()
        return RoundRecord.from_row(row) if row else None

    def history(self, ip: int) -> list[RoundRecord]:
        history: list[RoundRecord] = []
        for info in self.rounds():
            cursor = self._conn.execute(
                _rows_sql(info.table_name, "WHERE t.ip = ?"), (ip,)
            )
            row = cursor.fetchone()
            if row is not None:
                history.append(RoundRecord.from_row(row))
        return history

    def ip_history_rows(self, ip: int) -> list[dict]:
        """One clustered-index range scan over ``view_ip_history``
        (finalized rounds only, chronological order) instead of a
        per-round full-row lookup — the serving layer's hot path."""
        columns = ", ".join(f"h.{n}" for n in IP_HISTORY_COLUMNS)
        with self._lock:
            cursor = self._conn.execute(
                f"SELECT {columns} FROM view_ip_history h"
                " JOIN rounds r ON r.round_id = h.round_id"
                " WHERE h.ip = ? AND r.round_status != ?"
                " ORDER BY h.timestamp, h.round_id",
                (ip, ROUND_IN_PROGRESS),
            )
            return [dict(zip(IP_HISTORY_COLUMNS, row)) for row in cursor]

    def responsive_ips(self, round_id: int) -> set[int]:
        info = self.round_info(round_id)
        cursor = self._conn.execute(f"SELECT ip FROM {info.table_name}")
        return {row[0] for row in cursor.fetchall()}

    # ------------------------------------------------------------------
    # read models

    def rebuild_views(self) -> int:
        """Clear every read model and replay :meth:`_fold_rows` over each
        round's shard journal — the ``repro rebuild-views`` repair for
        views :meth:`verify_round` flags stale.  Covers open rounds too
        (folding tracks writing, not finalization).  One transaction: a
        crash mid-rebuild rolls back to the old views."""
        with self._lock:
            if self.readonly:
                raise ValueError("store is read-only")
            try:
                for table in _VIEW_TABLES:
                    self._conn.execute(f"DELETE FROM {table}")
                round_ids = [
                    row[0] for row in self._conn.execute(
                        "SELECT round_id FROM rounds "
                        "ORDER BY timestamp, round_id"
                    ).fetchall()
                ]
                for round_id in round_ids:
                    table = self._any_round(round_id).table_name
                    for entry in self.shard_journal(round_id):
                        self._fold_rows(
                            round_id,
                            self._stored_rows(table, entry.shard_index),
                            entry.quarantine_count,
                        )
                        self._note_view_fold()
                self._commit()
            except BaseException:
                self._conn.rollback()
                raise
            return len(round_ids)

    # ------------------------------------------------------------------
    # lifecycle

    def close(self) -> None:
        self._conn.close()
