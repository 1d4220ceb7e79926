"""Record types flowing through the WhoWas pipeline.

The pipeline is scanner → fetcher → feature generator → store (§4 of the
paper).  Each stage has a dedicated record type; a :class:`RoundRecord`
is the fully-populated row persisted for one IP in one round of scanning.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

__all__ = [
    "Port",
    "ProbeStatus",
    "ProbeOutcome",
    "FetchStatus",
    "FetchResult",
    "PageFeatures",
    "RoundRecord",
    "ROW_FIELDS",
    "QuarantineRecord",
    "StageStats",
    "PipelineStats",
    "PIPELINE_STATS_META_PREFIX",
    "UNKNOWN",
    "digest_of",
    "parse_open_ports",
    "port_profile_of",
    "status_class_of",
    "is_available",
]

#: Placeholder for features missing from the HTML or headers (§4:
#: "We mark entries as unknown when they are missing").
UNKNOWN = "unknown"


def digest_of(body: str) -> bytes:
    """blake2b-16 of a decoded page body: the key a body is memoised
    under while a round is ingested and stored under once it is."""
    # surrogatepass keeps the digest total over any str, including
    # lone surrogates a hand-built record may carry.
    return hashlib.blake2b(
        body.encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()


class Port(enum.IntEnum):
    """The three ports WhoWas probes (§4)."""

    HTTP = 80
    HTTPS = 443
    SSH = 22


def parse_open_ports(text: str) -> frozenset[int]:
    """Inverse of the ``open_ports`` column (sorted, comma-joined)."""
    return frozenset(int(p) for p in text.split(",") if p)


def port_profile_of(open_ports: frozenset[int]) -> str:
    """Port combination label used in Table 3."""
    has_http = Port.HTTP in open_ports
    has_https = Port.HTTPS in open_ports
    if has_http and has_https:
        return "80&443"
    if has_http:
        return "80-only"
    if has_https:
        return "443-only"
    if Port.SSH in open_ports:
        return "22-only"
    return "none"


class ProbeStatus(enum.Enum):
    """Result of the TCP SYN probe stage for one IP."""

    #: At least one probed port accepted a connection.
    RESPONSIVE = "responsive"
    #: All probes timed out or were refused.
    UNRESPONSIVE = "unresponsive"
    #: IP was on the do-not-scan blacklist and was never probed.
    SKIPPED = "skipped"


@dataclass(frozen=True)
class ProbeOutcome:
    """Which ports answered for one IP in one round."""

    ip: int
    status: ProbeStatus
    open_ports: frozenset[int] = frozenset()
    #: Taxonomy label of the last classified probe failure for this IP
    #: (:attr:`repro.core.transport.TransportError.kind`), or None when
    #: every probe either succeeded or failed silently.
    error_class: str | None = None

    @property
    def responsive(self) -> bool:
        return self.status is ProbeStatus.RESPONSIVE

    @property
    def wants_fetch(self) -> bool:
        """True if the fetcher should visit this IP (80 or 443 open)."""
        return bool(self.open_ports & {Port.HTTP, Port.HTTPS})

    @property
    def scheme(self) -> str | None:
        """URL scheme the fetcher will use, per §4: "http://" if port 80
        was open (alone or with 443), "https://" if only 443 was open."""
        if Port.HTTP in self.open_ports:
            return "http"
        if Port.HTTPS in self.open_ports:
            return "https"
        return None


class FetchStatus(enum.Enum):
    """Result of the HTTP fetch stage."""

    OK = "ok"                       # got an HTTP response (any status code)
    ERROR = "error"                 # connection/protocol error
    ROBOTS_DISALLOWED = "robots"    # robots.txt forbids fetching /
    NOT_ATTEMPTED = "not-attempted"  # no web port open


_FETCH_OK = FetchStatus.OK.value


def status_class_of(status_code: int | None) -> str:
    """Status-code class label used in Table 4."""
    if status_code is None:
        return "other"
    if status_code == 200:
        return "200"
    if 400 <= status_code < 500:
        return "4xx"
    if 500 <= status_code < 600:
        return "5xx"
    return "other"


def is_available(fetch_status: str, status_code: int | None) -> bool:
    """§4: an IP is *available* in a round if the HTTP(S) request for
    the URL (without robots.txt) succeeded — i.e. any HTTP response
    came back, whatever its status code.  This matches Table 7's
    available/responsive ratio (~68% on EC2); Table 4 separately
    breaks the responses down by status class.  *fetch_status* is a
    :class:`FetchStatus` value, as the ``fetch_status`` column holds."""
    return fetch_status == _FETCH_OK and status_code is not None


@dataclass(frozen=True)
class FetchResult:
    """Outcome of fetching the top-level page of one IP.

    ``body`` holds at most the first 512 KB of *text* content; non-text
    content types are never downloaded (§4).
    """

    ip: int
    status: FetchStatus
    url: str = ""
    status_code: int | None = None
    headers: Mapping[str, str] = field(default_factory=dict)
    body: str | None = None
    error: str | None = None
    #: Taxonomy label of the transport failure (see
    #: :func:`repro.core.transport.classify_error`); None unless
    #: ``status`` is :attr:`FetchStatus.ERROR`.
    error_class: str | None = None

    @cached_property
    def body_digest(self) -> bytes:
        """blake2b-16 of the decoded body: the one key everything
        derived from a body is memoised under (feature extraction and
        the guard's body verdict), computed at most once per fetch.  Not
        a field, so ``==`` and ``repr`` ignore it."""
        return digest_of(self.body or "")

    @property
    def content_type(self) -> str:
        value = ""
        for name, header_value in self.headers.items():
            if name.lower() == "content-type":
                value = header_value
                break
        return value.split(";")[0].strip().lower()


@dataclass(frozen=True)
class PageFeatures:
    """The ten features extracted per fetched page (§4)."""

    powered_by: str = UNKNOWN        # (1) "x-powered-by" response header
    description: str = UNKNOWN       # (2) <meta name="description">
    header_string: str = UNKNOWN     # (3) sorted header names joined by '#'
    html_length: int = 0             # (4) length of returned HTML
    title: str = UNKNOWN             # (5) <title> string
    template: str = UNKNOWN          # (6) <meta name="generator"> template
    server: str = UNKNOWN            # (7) Server response header
    keywords: str = UNKNOWN          # (8) <meta name="keywords">
    analytics_id: str = UNKNOWN      # (9) Google Analytics ID
    simhash: int = 0                 # (10) 96-bit simhash of the HTML

    def level1_key(self) -> tuple[str, str, str, str, str]:
        """The five features used for first-level clustering (§5):
        title, template, server, keywords, and Analytics ID."""
        return (self.title, self.template, self.server,
                self.keywords, self.analytics_id)


@dataclass(frozen=True)
class QuarantineRecord:
    """One dead-letter row: a per-IP unit of work the supervision layer
    had to neutralise (deadline kill, trapped exception, or hostile
    content) instead of letting it take the round down.

    Quarantined pages still produce a (possibly sentinel) round record;
    this row is the side channel that lets ``repro quarantine replay``
    re-process them once the extractor is fixed.
    """

    ip: int
    round_id: int
    timestamp: int
    #: Pipeline stage that tripped: ``"fetch"`` or ``"extract"``.
    stage: str
    #: Guard verdict label (:class:`repro.core.guard.GuardVerdict`).
    verdict: str
    #: Exception class name, when an exception was trapped.
    error_class: str | None = None
    #: Truncated exception message.
    error: str | None = None
    #: Truncated offending payload (body excerpt) for post-mortem.
    payload: str = ""
    #: Store row id; set when loaded from a database.
    entry_id: int | None = None
    #: True once ``repro quarantine replay`` re-processed this entry.
    replayed: bool = False

    def to_row(self) -> dict:
        return {
            "ip": self.ip,
            "round_id": self.round_id,
            "timestamp": self.timestamp,
            "stage": self.stage,
            "verdict": self.verdict,
            "error_class": self.error_class,
            "error": self.error,
            "payload": self.payload,
            "replayed": int(self.replayed),
        }

    @classmethod
    def from_row(cls, row: Mapping) -> "QuarantineRecord":
        keys = row.keys() if hasattr(row, "keys") else row
        return cls(
            ip=row["ip"],
            round_id=row["round_id"],
            timestamp=row["timestamp"],
            stage=row["stage"],
            verdict=row["verdict"],
            error_class=row["error_class"],
            error=row["error"],
            payload=row["payload"],
            entry_id=row["entry_id"] if "entry_id" in keys else None,
            replayed=bool(row["replayed"]) if "replayed" in keys else False,
        )


@dataclass
class StageStats:
    """Throughput telemetry for one pipeline stage in one round.

    ``busy_seconds`` is time the stage spent actually processing shards
    (not waiting on its input queue), so ``items / busy_seconds`` is the
    stage's intrinsic throughput and the stage with the largest
    ``busy_seconds`` is the round's bottleneck.
    """

    name: str
    #: Shards this stage processed.
    shards: int = 0
    #: Stage-specific work items (targets scanned, pages fetched,
    #: records extracted, rows written).
    items: int = 0
    #: Wall-clock spent processing (excludes queue waits).
    busy_seconds: float = 0.0
    #: High-water mark of the stage's *output* queue (shards buffered
    #: downstream).
    queue_peak: int = 0
    #: Times the stage stalled because its output queue was full — the
    #: backpressure signal (includes AIMD-shrunk capacity).
    backpressure_waits: int = 0

    @property
    def items_per_second(self) -> float:
        return self.items / self.busy_seconds if self.busy_seconds > 0 else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "shards": self.shards,
            "items": self.items,
            "busy_seconds": self.busy_seconds,
            "queue_peak": self.queue_peak,
            "backpressure_waits": self.backpressure_waits,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "StageStats":
        return cls(**dict(data))


#: ``campaign_meta`` key prefix under which per-round pipeline stats
#: are persisted as JSON (read back by ``repro stats``).
PIPELINE_STATS_META_PREFIX = "pipeline_stats:"


@dataclass
class PipelineStats:
    """Per-round snapshot of the streaming pipeline's behaviour.

    Attached to :class:`~repro.core.platform.RoundSummary` and persisted
    as JSON in ``campaign_meta`` (key ``pipeline_stats:<round_id>``) so
    ``repro stats`` can reconstruct the throughput picture later.
    """

    #: ``"overlapped"`` (streaming stage-parallel, in-process) or
    #: ``"multiprocess"`` (partitioned worker pool).
    mode: str
    #: Wall-clock of the whole round body (shard processing + drain).
    wall_seconds: float = 0.0
    records_written: int = 0
    shards_written: int = 0
    #: Store commits issued by the round's writes.
    writer_flushes: int = 0
    #: Total / worst-case time inside those commits.
    writer_flush_seconds: float = 0.0
    writer_max_flush_seconds: float = 0.0
    #: Shards per commit transaction: 1 once anything was committed
    #: (older campaigns may have persisted larger values).
    writer_max_batch: int = 0
    # -- multi-process supervision telemetry (zero outside --workers) --
    #: Size of the worker pool the round started with.
    worker_count: int = 0
    #: Worker processes killed (missed heartbeat) or found dead
    #: (nonzero exit / incomplete journal) and replaced.
    worker_restarts: int = 0
    #: Partitions put back on the queue after a worker failure.
    partition_reassignments: int = 0
    #: Partitions that exhausted their retries and fell back to an
    #: inline run in the coordinator (forces the round degraded).
    partitions_failed: int = 0
    #: Partition journals whose shards were merged into the store
    #: (includes salvaged journals from a crashed coordinator).
    partitions_merged: int = 0
    #: Oldest heartbeat age observed across all workers, seconds.
    max_heartbeat_age: float = 0.0
    stages: dict[str, StageStats] = field(default_factory=dict)
    #: Multi-process rounds only: per-partition stage stats keyed by
    #: partition index (as a string, for JSON round-tripping), so
    #: ``repro stats`` can attribute the merged ``stages`` view back to
    #: individual workers instead of showing an anonymous sum.
    partitions: dict[str, dict[str, StageStats]] = field(
        default_factory=dict
    )

    @property
    def records_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.records_written / self.wall_seconds

    def stage(self, name: str) -> StageStats:
        """The named stage's stats, created on first use."""
        if name not in self.stages:
            self.stages[name] = StageStats(name=name)
        return self.stages[name]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "wall_seconds": self.wall_seconds,
            "records_written": self.records_written,
            "shards_written": self.shards_written,
            "writer_flushes": self.writer_flushes,
            "writer_flush_seconds": self.writer_flush_seconds,
            "writer_max_flush_seconds": self.writer_max_flush_seconds,
            "writer_max_batch": self.writer_max_batch,
            "worker_count": self.worker_count,
            "worker_restarts": self.worker_restarts,
            "partition_reassignments": self.partition_reassignments,
            "partitions_failed": self.partitions_failed,
            "partitions_merged": self.partitions_merged,
            "max_heartbeat_age": self.max_heartbeat_age,
            "stages": {
                name: stage.to_dict() for name, stage in self.stages.items()
            },
            "partitions": {
                index: {
                    name: stage.to_dict()
                    for name, stage in stages.items()
                }
                for index, stages in self.partitions.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineStats":
        payload = dict(data)
        payload["stages"] = {
            name: StageStats.from_dict(stage)
            for name, stage in payload.get("stages", {}).items()
        }
        # Stats persisted before per-partition attribution lack the key.
        payload["partitions"] = {
            str(index): {
                name: StageStats.from_dict(stage)
                for name, stage in stages.items()
            }
            for index, stages in payload.get("partitions", {}).items()
        }
        return cls(**payload)


#: A :class:`RoundRecord`'s flat columns, in stored order (the store's
#: schema types them: :data:`repro.core.store.base.COLUMNS`).
ROW_FIELDS = (
    "ip", "round_id", "timestamp", "probe_status", "open_ports",
    "fetch_status", "url", "status_code", "content_type", "headers",
    "body", "error", "error_class", "probe_error_class", "powered_by",
    "description", "header_string", "html_length", "title", "template",
    "server", "keywords", "analytics_id", "simhash", "ssh_banner",
)

#: What a record without features persists in the feature columns.
_NO_FEATURES = PageFeatures()


@dataclass(frozen=True)
class RoundRecord:
    """One fully-processed row: one IP in one round of scanning."""

    ip: int
    round_id: int
    timestamp: int                      # day index of the round
    probe: ProbeOutcome
    fetch: FetchResult
    features: PageFeatures | None = None
    #: SSH banner read from port 22, when banner grabbing is enabled.
    ssh_banner: str | None = None

    def _flat(self, body) -> tuple:
        """The record's columns in :data:`ROW_FIELDS` order, *body* in
        the body slot: the one flattening both row shapes share."""
        probe, fetch = self.probe, self.fetch
        features = self.features or _NO_FEATURES
        headers = fetch.headers
        # ``_value_`` is what the ``value`` property returns, minus two
        # Python calls per enum per row.
        return (
            self.ip,
            self.round_id,
            self.timestamp,
            probe.status._value_,
            ",".join(map(str, sorted(probe.open_ports))),
            fetch.status._value_,
            fetch.url,
            fetch.status_code,
            fetch.content_type,
            "\n".join(map("{}: {}".format, headers.keys(), headers.values())),
            body,
            fetch.error,
            fetch.error_class,
            probe.error_class,
            features.powered_by,
            features.description,
            features.header_string,
            features.html_length,
            features.title,
            features.template,
            features.server,
            features.keywords,
            features.analytics_id,
            f"{features.simhash:024x}",
            self.ssh_banner,
        )

    def row(self) -> tuple:
        """The stored encoding: the :data:`ROW_FIELDS` columns with the
        body's :attr:`~FetchResult.body_digest` (None without a body) in
        the body slot.  Built once per record; the store inserts,
        checksums and folds this same tuple."""
        fetch = self.fetch
        return self._flat(None if fetch.body is None else fetch.body_digest)

    def to_row(self) -> dict:
        """The decoded row: :data:`ROW_FIELDS` to values, body text
        included — the shape :meth:`from_row` reads."""
        return dict(zip(ROW_FIELDS, self._flat(self.fetch.body)))

    @classmethod
    def from_row(cls, row: Mapping) -> "RoundRecord":
        """Inverse of :meth:`to_row`."""
        open_ports = parse_open_ports(row["open_ports"])
        headers = {}
        if row["headers"]:
            for line in row["headers"].split("\n"):
                name, _, value = line.partition(": ")
                headers[name] = value
        probe = ProbeOutcome(
            ip=row["ip"],
            status=ProbeStatus(row["probe_status"]),
            open_ports=open_ports,
            error_class=row["probe_error_class"],
        )
        fetch = FetchResult(
            ip=row["ip"],
            status=FetchStatus(row["fetch_status"]),
            url=row["url"],
            status_code=row["status_code"],
            headers=headers,
            body=row["body"],
            error=row["error"],
            error_class=row["error_class"],
        )
        # Features exist only for records with stored page content; the
        # writer serialises defaults for feature-less rows, so body
        # presence is the authoritative marker.
        features = None
        if row["body"] is not None:
            features = PageFeatures(
                powered_by=row["powered_by"],
                description=row["description"],
                header_string=row["header_string"],
                html_length=row["html_length"],
                title=row["title"],
                template=row["template"],
                server=row["server"],
                keywords=row["keywords"],
                analytics_id=row["analytics_id"],
                simhash=int(row["simhash"], 16),
            )
        return cls(
            ip=row["ip"],
            round_id=row["round_id"],
            timestamp=row["timestamp"],
            probe=probe,
            fetch=fetch,
            features=features,
            ssh_banner=row["ssh_banner"],
        )
