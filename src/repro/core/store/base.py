"""The storage-engine seam: shared protocol types and the abstract
:class:`StoreBackend` every measurement store implements.

The WhoWas write path (journaled rounds, idempotent shards, quarantine)
and read path (round listings, per-IP history, feature aggregates) are
defined here once; concrete engines — the row-oriented SQLite reference
implementation (:mod:`.sqlite`) and the round-partitioned columnar
analytical engine (:mod:`.columnar`) — implement the same contract, and
the conformance suite (``tests/test_store_backends.py``) proves a
campaign written through either backend is row-equivalent.

Protocol invariants every backend must honour
---------------------------------------------
* :meth:`StoreBackend.begin_round` registers a round ``in_progress``;
  re-opening an ``in_progress`` round is the resume path and keeps its
  committed shards and journaled shard size.
* :meth:`StoreBackend.write_shard` commits one shard (rows + quarantine
  entries + journal entry) **atomically and idempotently**: a shard
  index that already committed is skipped, so a crashed-and-resumed
  process can blindly replay its shard sequence.
* Every committed shard journals a :func:`shard_checksum` digest of
  its stored row tuples; :meth:`StoreBackend.verify_round` recomputes
  them offline and re-hashes every body the round references.
* **Materialized read models** (per-IP history, round summary, cluster
  aggregates) are folded in by the same commit that lands the shard —
  the fold and the shard are one atomic unit, so the views can never
  drift from the base data across a crash.  :meth:`rebuild_views` is
  the offline escape hatch, and :meth:`verify_round` audits the views
  with the same checksum discipline as the shards.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..records import (
    ROW_FIELDS,
    PageFeatures,
    QuarantineRecord,
    RoundRecord,
    digest_of,
    is_available,
)
from .. import telemetry as _telemetry

__all__ = [
    "ROUND_IN_PROGRESS",
    "ROUND_COMPLETE",
    "ROUND_DEGRADED",
    "AGGREGATE_COLUMNS",
    "VIEW_NAMES",
    "RoundInfo",
    "ShardPayload",
    "ShardJournalEntry",
    "RoundVerification",
    "StoreBackend",
    "UnsupportedStoreFormat",
    "bad_bodies",
    "encode_shard",
    "shard_checksum",
    "is_interrupted",
]


class UnsupportedStoreFormat(ValueError):
    """The store was written in an older format, which this version
    refuses rather than migrates (each engine names the difference)."""


def is_interrupted(exc: BaseException) -> bool:
    """True when *exc* is sqlite aborting a statement mid-flight — the
    error a :meth:`StoreBackend.read_deadline` expiry (or an explicit
    ``Connection.interrupt()``) surfaces as."""
    return (
        isinstance(exc, sqlite3.OperationalError)
        and "interrupt" in str(exc).lower()
    )


#: ``rounds.round_status`` values of the journaled protocol.
ROUND_IN_PROGRESS = "in_progress"
ROUND_COMPLETE = "complete"
ROUND_DEGRADED = "degraded"

#: Feature columns :meth:`StoreBackend.aggregate_column` may group by —
#: a strict allowlist since backends interpolate the name into queries.
AGGREGATE_COLUMNS = frozenset(
    {"template", "server", "powered_by", "content_type",
     "status_code", "title"}
)

#: The materialized read models every backend maintains incrementally.
VIEW_NAMES = ("ip_history", "round_summary", "cluster_agg")

#: The flat persistence schema of a record's row
#: (:data:`~repro.core.records.ROW_FIELDS`, typed), shared by every
#: backend so checksums and row-equivalence are backend-agnostic.
COLUMNS: tuple[tuple[str, str], ...] = tuple(zip(ROW_FIELDS, (
    "INTEGER NOT NULL",     # ip
    "INTEGER NOT NULL",     # round_id
    "INTEGER NOT NULL",     # timestamp
    "TEXT NOT NULL",        # probe_status
    "TEXT NOT NULL",        # open_ports
    "TEXT NOT NULL",        # fetch_status
    "TEXT",                 # url
    "INTEGER",              # status_code
    "TEXT",                 # content_type
    "TEXT",                 # headers
    "TEXT",                 # body
    "TEXT",                 # error
    "TEXT",                 # error_class
    "TEXT",                 # probe_error_class
    "TEXT",                 # powered_by
    "TEXT",                 # description
    "TEXT",                 # header_string
    "INTEGER",              # html_length
    "TEXT",                 # title
    "TEXT",                 # template
    "TEXT",                 # server
    "TEXT",                 # keywords
    "TEXT",                 # analytics_id
    "TEXT",                 # simhash
    "TEXT",                 # ssh_banner
), strict=True))

COLUMN_NAMES = tuple(name for name, _ in COLUMNS)

#: What :meth:`StoreBackend.columns` projects: the record columns plus
#: ``body_digest``, the body's :func:`~repro.core.records.digest_of`
#: (None for a row without a body) — a body-presence test and a
#: per-page memo key that reads no body text.
PROJECTION_NAMES = COLUMN_NAMES + ("body_digest",)


def check_column_names(names: Iterable[str]) -> tuple[str, ...]:
    """*names* as a tuple, after checking each against
    :data:`PROJECTION_NAMES` — :meth:`StoreBackend.columns` engines
    interpolate them into queries, so anything else is refused here."""
    names = tuple(names)
    if not names or any(name not in PROJECTION_NAMES for name in names):
        raise ValueError(f"expected record column names, got {names!r}")
    return names


def body_digest(body: str | None) -> bytes | None:
    """The ``body_digest`` projection of one row's *body*."""
    return None if body is None else digest_of(body)


#: The light columns the per-IP-history read model carries — everything
#: the WhoWas lookup endpoint serves, nothing it doesn't (no bodies).
IP_HISTORY_COLUMNS = (
    "ip", "round_id", "timestamp", "open_ports", "fetch_status",
    "status_code", "server", "title", "template",
)


def shard_checksum(rows: Iterable[Sequence]) -> str:
    """Digest of one shard's rows in insertion order: blake2b over one
    JSON encoding of the whole list.  The rows are the stored tuples
    (:meth:`RoundRecord.row`), whose body slot holds the body's digest
    (hex here), so no body text is hashed: body integrity is
    :meth:`StoreBackend.verify_round`'s re-hash of each body against
    its digest.  Journaled at commit time and recomputed by
    ``verify_round`` and the partition-journal merge."""
    blob = json.dumps(list(rows), separators=(",", ":"), default=bytes.hex)
    return hashlib.blake2b(blob.encode("ascii"), digest_size=16).hexdigest()


def encode_shard(
    records: Iterable[RoundRecord],
) -> tuple[list[tuple], dict[bytes, str]]:
    """One shard's stored rows (:meth:`RoundRecord.row`, built once per
    record) and the distinct bodies they reference, by digest."""
    rows = []
    bodies = {}
    for record in records:
        rows.append(record.row())
        body = record.fetch.body
        if body is not None:
            bodies[record.fetch.body_digest] = body
    return rows, bodies


def bad_bodies(bodies: Mapping[bytes, str | None]) -> set[bytes]:
    """The digests of *bodies* whose text is missing (None) or no
    longer hashes to its digest."""
    return {
        digest for digest, body in bodies.items()
        if body is None or digest_of(body) != digest
    }


def rows_checksum(rows: Iterable[Mapping]) -> str:
    """Order-insensitive digest over a set of dict rows — for comparing
    row sets whose order is an implementation detail."""
    blobs = sorted(
        json.dumps(dict(row), sort_keys=True, separators=(",", ":"),
                   ensure_ascii=False)
        for row in rows
    )
    digest = hashlib.blake2b(digest_size=16)
    for blob in blobs:
        digest.update(blob.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


@dataclass(frozen=True)
class RoundInfo:
    """Metadata about one round of scanning."""

    round_id: int
    timestamp: int          # day index when the round started
    targets_probed: int
    responsive_count: int
    #: True when the round blew its error budget (too many classified
    #: transport failures): the data is persisted but suspect.
    degraded: bool = False
    #: Classified transport errors observed during the round.
    error_count: int = 0
    #: Journal state: ``in_progress`` while shards are still being
    #: written, ``complete``/``degraded`` once finalized.
    status: str = ROUND_COMPLETE
    #: Shard size the round was written with (0 = single-shot write);
    #: a resumed round must reuse it so shard indices line up.
    shard_size: int = 0

    #: Wall-clock seconds the round engine spent producing the round
    #: (the finalizing invocation's time; a crash-resumed round reports
    #: the resuming run's duration — earlier attempts' clocks died with
    #: their process).
    duration_seconds: float = 0.0

    @property
    def table_name(self) -> str:
        return f"round_{self.timestamp:05d}"


@dataclass(frozen=True)
class ShardPayload:
    """One shard's worth of data queued for the store writer.

    The batch API (:meth:`StoreBackend.write_shards`) takes a sequence
    of these and commits them in a single transaction.
    """

    shard_index: int
    records: tuple[RoundRecord, ...]
    errors: int = 0
    operations: int = 0
    quarantine: tuple[QuarantineRecord, ...] = ()


@dataclass(frozen=True)
class ShardJournalEntry:
    """One row of the committed-shard journal."""

    round_id: int
    shard_index: int
    record_count: int
    errors: int = 0
    operations: int = 0
    #: blake2b digest of the shard's rows.
    checksum: str = ""
    #: Quarantine entries committed with the shard.
    quarantine_count: int = 0


@dataclass
class RoundVerification:
    """Result of :meth:`StoreBackend.verify_round`: the round journal
    walked, per-shard checksums recomputed, read models audited."""

    round_id: int
    timestamp: int
    status: str
    #: Shards present in the journal.
    shards: int = 0
    #: Shards whose recomputed digest matched the journaled one.
    verified: int = 0
    #: Expected shard indices with no journal entry (finalized rounds).
    missing: list[int] = field(default_factory=list)
    #: Shards whose rows no longer match their journaled checksum or
    #: record count.
    corrupt: list[int] = field(default_factory=list)
    #: Rows in the round table not attributed to any journaled shard.
    orphan_rows: int = 0
    #: Quarantine entries not attributed to any journaled shard.
    orphan_quarantine: int = 0
    #: Materialized read models whose stored contents no longer match
    #: the fold of the round's journaled rows.
    view_issues: list[str] = field(default_factory=list)
    #: Rows whose body digest names no stored body (engines that store
    #: bodies apart from rows); their shards read back corrupt too.
    missing_bodies: int = 0
    #: Stored bodies the round references whose text no longer hashes
    #: to their digest; the shards referencing them read back corrupt.
    corrupt_bodies: int = 0

    @property
    def ok(self) -> bool:
        return (
            not self.missing and not self.corrupt
            and self.orphan_rows == 0 and self.orphan_quarantine == 0
            and not self.view_issues and self.missing_bodies == 0
            and self.corrupt_bodies == 0
        )

    def describe(self) -> str:
        """One human-readable line for ``repro verify``."""
        parts = [f"{self.verified}/{self.shards} shards verified"]
        if self.missing:
            parts.append(f"MISSING shards {self.missing}")
        if self.corrupt:
            parts.append(f"CORRUPT shards {self.corrupt}")
        if self.missing_bodies:
            parts.append(f"{self.missing_bodies} rows with a MISSING body")
        if self.corrupt_bodies:
            parts.append(f"{self.corrupt_bodies} CORRUPT bodies")
        if self.orphan_rows:
            parts.append(f"{self.orphan_rows} orphan rows")
        if self.orphan_quarantine:
            parts.append(f"{self.orphan_quarantine} orphan quarantine entries")
        if self.view_issues:
            parts.append(f"STALE views {self.view_issues}")
        state = "ok" if self.ok else "FAIL"
        return (
            f"round {self.round_id} (day {self.timestamp}, {self.status}): "
            f"{state} — " + ", ".join(parts)
        )


def summarize_rows(row_dicts: Sequence[Mapping]) -> dict[str, int]:
    """Fold one shard's rows into the round-summary increments shared
    by every backend's view maintenance (and by the audits)."""
    available = sum(
        1 for row in row_dicts
        if is_available(row["fetch_status"], row["status_code"])
    )
    fetched = sum(
        1 for row in row_dicts if row["fetch_status"] != "not-attempted"
    )
    return {
        "responsive": len(row_dicts),
        "available": available,
        "fetched": fetched,
    }


def _projection_row(record: RoundRecord) -> dict:
    """*record*'s :meth:`~RoundRecord.to_row` plus ``body_digest``."""
    row = record.to_row()
    row["body_digest"] = body_digest(row["body"])
    return row


def light_row(row: Mapping) -> dict:
    """Project one full record row onto the per-IP-history read model.

    Rows without stored page content carry serialised *default*
    feature values (``"unknown"``); the read model nulls those out so
    a view read reports exactly what a full-record read would (a
    record with no body deserialises with ``features=None``)."""
    projected = {name: row[name] for name in IP_HISTORY_COLUMNS}
    if row["body"] is None:
        projected["server"] = None
        projected["title"] = None
        projected["template"] = None
    return projected


class StoreBackend(ABC):
    """Abstract measurement store: the seam the platform, the worker
    merge path, the serving layer, and the analyses all program against.

    Concrete engines subclass this and implement the abstract methods;
    the base class carries the protocol dataclasses (above), writer-flush
    telemetry, and default implementations that hold for any compliant
    backend.
    """

    #: Backend identifier ("sqlite", "columnar") — what
    #: :func:`repro.core.store.open_store` selects on.
    BACKEND = "abstract"

    def __init__(self) -> None:
        #: Writer telemetry, fed into PipelineStats by the platform.
        self._writer_stats = {
            "shard_commits": 0,
            "flush_count": 0,
            "flush_seconds": 0.0,
            "max_flush_seconds": 0.0,
            "max_batch_shards": 0,
        }
        tel = _telemetry.get()
        self._m_commits = tel.counter(
            "repro_store_commits_total",
            "Shard-write transactions committed by the store",
        )
        self._m_commit_seconds = tel.histogram(
            "repro_store_commit_seconds",
            "Wall-clock per shard-write transaction (incl. fsync)",
        )
        self._m_view_folds = tel.counter(
            "repro_view_folds_total",
            "Shards folded into each materialized read model",
            labels=("view",),
        )

    # ------------------------------------------------------------------
    # shared plumbing

    def _note_flush(self, batch_shards: int, seconds: float) -> None:
        stats = self._writer_stats
        stats["shard_commits"] += batch_shards
        stats["flush_count"] += 1
        stats["flush_seconds"] += seconds
        stats["max_flush_seconds"] = max(stats["max_flush_seconds"], seconds)
        stats["max_batch_shards"] = max(stats["max_batch_shards"],
                                        batch_shards)
        self._m_commits.inc()
        self._m_commit_seconds.observe(seconds)

    def _note_view_fold(self) -> None:
        for view in VIEW_NAMES:
            self._m_view_folds.labels(view=view).inc()

    def writer_stats_snapshot(self) -> dict[str, float]:
        """Lifetime writer-flush telemetry (commit counts/latency) —
        the platform diffs two snapshots to attribute flushes to one
        round's :class:`~repro.core.records.PipelineStats`."""
        return dict(self._writer_stats)

    @contextmanager
    def read_deadline(self, deadline: float | None, *, tick: int = 64):
        """Bound reads on this store by a monotonic *deadline*
        (``time.monotonic()`` seconds; ``None`` disables).  The base
        implementation is a no-op context manager — engines that can
        abort statements mid-flight (sqlite's progress handler)
        override it."""
        yield self

    # ------------------------------------------------------------------
    # journaled writes (abstract protocol)

    @abstractmethod
    def begin_round(
        self,
        round_id: int,
        timestamp: int,
        targets_probed: int,
        *,
        shard_size: int = 0,
    ) -> RoundInfo:
        """Open a round for shard-by-shard writing; returns its info.
        Re-opening an ``in_progress`` round is the resume path (shards
        and the journaled shard size are kept); re-opening a finalized
        one is a :class:`ValueError`, and so is a *timestamp* that
        already belongs to a different round."""

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
        """Commit one shard atomically and idempotently (False for an
        already-committed shard index): :func:`encode_shard`, then
        :meth:`write_rows`."""
        rows, bodies = encode_shard(records)
        return self.write_rows(
            round_id, shard_index, rows, bodies,
            errors=errors, operations=operations, quarantine=quarantine,
        )

    @abstractmethod
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
        """:meth:`write_shard` for a shard already encoded: its stored
        row tuples and the bodies they reference by digest (what the
        partition-journal merge reads back).  The rows, the shard's
        quarantine entries, the journal entry, and the read-model fold
        land as one atomic unit."""

    def write_shards(
        self, round_id: int, shards: Sequence[ShardPayload]
    ) -> int:
        """Commit a batch of shards; engines that can amortise the
        commit (one transaction, one fsync) override this.  Returns the
        number of shards actually committed."""
        committed = 0
        for shard in shards:
            committed += self.write_shard(
                round_id, shard.shard_index, shard.records,
                errors=shard.errors, operations=shard.operations,
                quarantine=shard.quarantine,
            )
        return committed

    @abstractmethod
    def finalize_round(
        self,
        round_id: int,
        *,
        degraded: bool = False,
        error_count: int | None = None,
        duration_seconds: float = 0.0,
    ) -> RoundInfo:
        """Seal an open round and flip its status to
        ``complete``/``degraded``."""

    # ------------------------------------------------------------------
    # recovery / journal / integrity (abstract)

    @abstractmethod
    def open_rounds(self) -> list[RoundInfo]:
        """Rounds a crash (or abort) left ``in_progress``, in
        chronological order — the resume entry point."""

    @abstractmethod
    def completed_shards(self, round_id: int) -> set[int]:
        """Shard indices that already committed for *round_id*."""

    @abstractmethod
    def shard_stats(self, round_id: int) -> tuple[int, int]:
        """Summed (errors, operations) journaled across the round's
        committed shards — survives a crash, unlike process counters."""

    @abstractmethod
    def shard_journal(self, round_id: int) -> list[ShardJournalEntry]:
        """The round's committed-shard journal, ascending shard index."""

    @abstractmethod
    def shard_records(
        self, round_id: int, shard_index: int
    ) -> list[RoundRecord]:
        """One committed shard's records in insertion order (works on
        rounds of any status, ``in_progress`` included)."""

    @abstractmethod
    def shard_quarantine(
        self, round_id: int, shard_index: int
    ) -> list[QuarantineRecord]:
        """Quarantine entries committed with one shard, oldest first."""

    @abstractmethod
    def verify_round(self, round_id: int) -> RoundVerification:
        """Walk one round's shard journal, recompute every shard's
        checksum, and audit the materialized read models against the
        base data."""

    def orphan_bodies(self) -> int:
        """Stored page bodies no round references — ``repro verify``'s
        campaign-wide check.  Engines that keep bodies inline in their
        rows have none."""
        return 0

    @abstractmethod
    def max_round_id(self) -> int:
        """Highest round_id ever assigned (0 for an empty store),
        including open rounds — the durable round-ID watermark."""

    # ------------------------------------------------------------------
    # quarantine (dead-letter)

    @abstractmethod
    def quarantine_rows(
        self,
        round_id: int | None = None,
        *,
        include_replayed: bool = True,
    ) -> list[QuarantineRecord]:
        """Quarantine entries, oldest first; optionally one round's,
        optionally only the ones not yet replayed."""

    @abstractmethod
    def quarantine_count(self, round_id: int | None = None) -> int:
        """Number of quarantine entries (optionally one round's)."""

    @abstractmethod
    def mark_quarantine_replayed(self, entry_id: int) -> None:
        """Flip one entry's replayed flag."""

    @abstractmethod
    def update_features(
        self, round_id: int, ip: int, features: PageFeatures
    ) -> bool:
        """Overwrite one row's feature columns — the ``repro quarantine
        replay`` path.  Returns False when the IP has no row in the
        round.  The owning shard's journaled checksum is recomputed and
        the read models are re-folded for the row, so a legitimate
        replay stays distinguishable from silent corruption."""

    # ------------------------------------------------------------------
    # campaign metadata

    @abstractmethod
    def set_meta(self, key: str, value: str) -> None:
        """Persist one campaign-level key/value pair (upsert)."""

    @abstractmethod
    def get_meta(self, key: str, default: str | None = None) -> str | None:
        """One campaign-level value, or *default*."""

    # ------------------------------------------------------------------
    # reads

    @abstractmethod
    def rounds(self) -> list[RoundInfo]:
        """All *finalized* rounds in chronological order (round_id
        breaks timestamp ties); partial rounds are visible through
        :meth:`open_rounds` instead."""

    @abstractmethod
    def round_info(self, round_id: int) -> RoundInfo:
        """One finalized round's info; KeyError for unknown or
        in-progress rounds."""

    @abstractmethod
    def round_stats(self, round_id: int) -> dict[str, int]:
        """Aggregate row counts for one round (any status):
        ``responsive``, ``available``, ``fetched`` and ``quarantined``.
        Served from the round-summary read model when it is
        maintained."""

    @abstractmethod
    def aggregate_column(
        self, round_id: int, column: str, *, limit: int = 20
    ) -> list[tuple[str, int]]:
        """Top values of one feature *column* in one round with their
        row counts, descending — the per-round cluster-aggregate read
        behind ``repro serve``.  *column* must be in
        :data:`AGGREGATE_COLUMNS`.  Served from the cluster-aggregate
        read model when it is maintained."""

    @abstractmethod
    def records(self, round_id: int) -> Iterator[RoundRecord]:
        """All records of one round."""

    def columns(
        self, round_id: int, names: Sequence[str]
    ) -> Iterator[tuple]:
        """The projection read: one tuple of the *names* columns
        (:data:`PROJECTION_NAMES` only, else :class:`ValueError`) per
        row of the round, in exactly :meth:`records`' order — what an
        analysis that needs a few light columns scans instead of
        decoding every row into a :class:`RoundRecord`.  This definition
        over :meth:`records` is the reference; engines override it with
        a read that touches only the named columns."""
        names = check_column_names(names)
        return (
            tuple(row[name] for name in names)
            for row in map(_projection_row, self.records(round_id))
        )

    @abstractmethod
    def record(self, round_id: int, ip: int) -> RoundRecord | None:
        """One IP's record in one round, or None if unresponsive then."""

    @abstractmethod
    def history(self, ip: int) -> list[RoundRecord]:
        """The WhoWas lookup: the full status/content history of an IP,
        in chronological order (absent rounds = unresponsive)."""

    def ip_history_rows(self, ip: int) -> list[dict]:
        """The *light* WhoWas lookup: one dict per finalized round the
        IP was responsive in, carrying only :data:`IP_HISTORY_COLUMNS`
        — what the serving layer renders, without dragging page bodies
        off disk.  Engines answer this from the per-IP-history read
        model; the base fallback projects :meth:`history`."""
        return [light_row(record.to_row()) for record in self.history(ip)]

    @abstractmethod
    def responsive_ips(self, round_id: int) -> set[int]:
        """IPs with a row in one finalized round."""

    # ------------------------------------------------------------------
    # read models

    @abstractmethod
    def rebuild_views(self) -> int:
        """Drop and refold every materialized read model from the base
        data (the ``repro rebuild-views`` escape hatch); returns the
        number of rounds refolded."""

    # ------------------------------------------------------------------
    # lifecycle

    @classmethod
    @abstractmethod
    def open_readonly(cls, path: str, **kwargs) -> "StoreBackend":
        """Open an existing database strictly for reading; never
        creates or mutates files."""

    @abstractmethod
    def close(self) -> None:
        """Release the backing resources (idempotent reads may fail
        afterwards)."""

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
