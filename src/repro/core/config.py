"""Configuration for the WhoWas platform components.

Defaults follow §4 and §6 of the paper: 2-second probe timeouts with no
retries, a global scan rate of 250 probes per second, at most three probes
per IP per day (80/tcp, 443/tcp, 22/tcp), a 250-worker fetch pool with a
10-second HTTP timeout, 512 KB text-content cap, and a research-note
User-Agent string carrying a contact address.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ScanConfig",
    "FetchConfig",
    "WorkerConfig",
    "TelemetryConfig",
    "ServeConfig",
    "StoreConfig",
    "PlatformConfig",
]


@dataclass(frozen=True)
class ScanConfig:
    """Scanner parameters (§4)."""

    #: Seconds before a SYN probe is declared failed.  The paper evaluated
    #: 8 s and found only +0.61% responsiveness, settling on 2 s.
    probe_timeout: float = 2.0
    #: Global probe rate limit in probes per second.  Deliberately far
    #: below prior Internet-wide scanners (1,000-1.4M pps) to stay polite.
    probes_per_second: float = 250.0
    #: Probes are never retried — minimises interaction with tenants.
    retries: int = 0
    #: Maximum concurrent in-flight probes.
    concurrency: int = 256

    def __post_init__(self) -> None:
        if self.probe_timeout <= 0:
            raise ValueError("probe_timeout must be positive")
        if self.probes_per_second <= 0:
            raise ValueError("probes_per_second must be positive")
        if self.concurrency <= 0:
            raise ValueError("concurrency must be positive")


#: Content-type prefixes that are never downloaded (§4).
_SKIP_CONTENT_PREFIXES = ("application/", "audio/", "image/", "video/")
#: Text content types that *are* downloaded despite the prefix rule
#: (Table 5 shows application/json and application/xml being stored).
_TEXT_CONTENT_TYPES = (
    "application/json",
    "application/xml",
    "application/xhtml+xml",
)


@dataclass(frozen=True)
class FetchConfig:
    """Fetcher parameters (§4, §6)."""

    #: Number of fetch workers in the pool (paper default: 250).
    workers: int = 250
    #: HTTP(S) connection timeout in seconds (paper default: 10).
    timeout: float = 10.0
    #: Research-note User-Agent per the ethics discussion (§7).
    user_agent: str = (
        "WhoWas-research-scanner/1.0 "
        "(measurement study; contact research-scan (at) example.org "
        "to opt out)"
    )

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError("workers must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def should_download(self, content_type: str) -> bool:
        """Return True if a body with this content type may be stored."""
        content_type = content_type.split(";")[0].strip().lower()
        if not content_type:
            return True
        if content_type in _TEXT_CONTENT_TYPES:
            return True
        return not content_type.startswith(_SKIP_CONTENT_PREFIXES)


@dataclass(frozen=True)
class WorkerConfig:
    """Multi-process round execution (:mod:`repro.core.workers`).

    With ``count > 1`` a round's shard sequence is partitioned across a
    pool of spawned worker processes, each running the normal
    :class:`~repro.core.pipeline.RoundPipeline` against its own
    partition journal (a SQLite sidecar of the campaign database).
    Heartbeats, retries and backoff are constants of
    :mod:`repro.core.workers`; completed journals are checksum-verified
    and merged in partition order, so the result is byte-identical to
    an in-process round on the same seed.
    """

    #: Worker processes per round.  0 or 1 runs the pipeline in this
    #: process; >1 enables the multi-process coordinator, which
    #: requires the platform to be built with a picklable
    #: ``transport_factory``.
    count: int = 0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")


@dataclass(frozen=True)
class TelemetryConfig:
    """Observability switches (:mod:`repro.core.telemetry`).

    Disabled by default: instrumented code then holds shared no-op
    metric handles and spans cost one no-op call per event.  The config
    lives on :class:`PlatformConfig` (and is therefore pickled into
    spawned partition workers) so one flag lights up metrics and trace
    spans across every process of a campaign.  Telemetry only observes
    — enabling it must never change store output.
    """

    #: Master switch for the metrics registry and trace spans.
    enabled: bool = False
    #: Append-only JSONL file receiving every completed span; ``None``
    #: keeps spans only in the in-memory ring.  Workers append to the
    #: same path (single-write lines interleave safely).
    trace_path: str | None = None


@dataclass(frozen=True)
class ServeConfig:
    """Query-serving parameters (:mod:`repro.serve`).

    ``repro serve`` exposes the measurement database over HTTP behind a
    full overload envelope: token-bucket admission with a bounded
    accept queue (beyond it, explicit ``429`` + ``Retry-After``
    shedding), a per-request deadline budget propagated into store
    reads (``503`` at expiry instead of pile-up), a per-endpoint
    circuit breaker that fails fast while the store is sick, and a
    SIGTERM drain protocol.  Every knob here bounds some resource a
    request flood would otherwise exhaust.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    #: Token-bucket admission: sustained requests per second...
    rate_per_second: float = 500.0
    #: ...with this much burst capacity (bucket size).
    burst: float = 100.0
    #: Requests that may *wait* for an admission token.  Beyond this
    #: the request is shed immediately with ``429`` + ``Retry-After``.
    accept_queue: int = 64
    #: Read-only store connections in the pool == max concurrent store
    #: reads.  Requests beyond it queue (bounded by their deadline).
    readers: int = 4
    #: Per-request deadline budget in seconds when the client sends no
    #: ``deadline_ms`` query parameter...
    default_deadline: float = 1.0
    #: ...and the ceiling any client may request.
    max_deadline: float = 10.0
    #: Per-endpoint circuit breaker: consecutive store failures before
    #: the breaker opens (0 disables it)...
    breaker_threshold: int = 5
    #: ...and seconds the breaker stays open before letting a single
    #: half-open probe request through.
    breaker_cooldown: float = 2.0
    #: Seconds SIGTERM-initiated drain waits for in-flight requests
    #: before force-closing their connections.
    drain_deadline: float = 5.0
    #: Seconds a client may take to deliver its request head (slow-loris
    #: bound on the accept path).
    header_timeout: float = 5.0
    #: Ceiling on request-head bytes (line + headers).
    max_request_bytes: int = 8192
    #: ``Retry-After`` jittered-backoff shape for shed responses: base
    #: doubles per consecutive shed, capped (`repro.core.backoff`).
    retry_after_base: float = 0.5
    retry_after_max: float = 8.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")
        if self.burst <= 0:
            raise ValueError("burst must be positive")
        if self.accept_queue < 0:
            raise ValueError("accept_queue must be non-negative")
        if self.readers <= 0:
            raise ValueError("readers must be positive")
        if not 0 < self.default_deadline <= self.max_deadline:
            raise ValueError(
                "need 0 < default_deadline <= max_deadline"
            )
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if self.drain_deadline < 0:
            raise ValueError("drain_deadline must be non-negative")
        if self.header_timeout <= 0:
            raise ValueError("header_timeout must be positive")
        if self.max_request_bytes < 256:
            raise ValueError("max_request_bytes must be at least 256")
        if self.retry_after_base <= 0 or self.retry_after_max <= 0:
            raise ValueError("retry_after delays must be positive")


@dataclass(frozen=True)
class StoreConfig:
    """Measurement-store engine selection.

    ``backend`` picks the engine new campaign databases are created
    with: ``"sqlite"`` (the row-oriented reference engine — one file,
    WAL, transactional folds) or ``"columnar"`` (the round-partitioned
    analytical engine — a directory of column-major shard files).
    Existing stores are always opened with the engine that wrote them
    (:func:`repro.core.store.detect_backend`); this setting only
    matters at creation time.
    """

    backend: str = "sqlite"

    def __post_init__(self) -> None:
        if self.backend not in ("sqlite", "columnar"):
            raise ValueError(
                f"unknown store backend {self.backend!r}; "
                "expected 'sqlite' or 'columnar'"
            )


@dataclass(frozen=True)
class PlatformConfig:
    """Top-level WhoWas configuration."""

    scan: ScanConfig = field(default_factory=ScanConfig)
    fetch: FetchConfig = field(default_factory=FetchConfig)
    workers: WorkerConfig = field(default_factory=WorkerConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    store: StoreConfig = field(default_factory=StoreConfig)
    #: IPs that must never be probed (tenant opt-outs; §4, §7).
    blacklist: frozenset[int] = frozenset()
    #: Also read the SSH banner from IPs with port 22 open (one extra
    #: connection per such IP per round) — the paper's non-web-services
    #: extension.  Off by default to keep the original probe budget.
    grab_ssh_banners: bool = False
    #: Checkpoint granularity: targets are scanned in shards of this
    #: many IPs, each committed to the store as it completes, so a
    #: crash or abort loses at most one shard of work.
    shard_size: int = 1024

    def __post_init__(self) -> None:
        if self.shard_size <= 0:
            raise ValueError("shard_size must be positive")
