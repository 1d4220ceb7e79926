"""Unified telemetry: metrics registry, trace spans, Prometheus export.

The engine already produces rich per-round telemetry (``PipelineStats``,
AIMD counters, quarantine tallies) but only *post-hoc*, through
``repro stats``.  This module makes run health observable **while a
campaign runs**, which is the prerequisite for operating WhoWas as a
long-lived measurement service:

* :class:`MetricsRegistry` — a process-wide, thread-safe registry of
  monotonic :class:`Counter`\\ s, :class:`Gauge`\\ s and fixed-bucket
  :class:`Histogram`\\ s, all with label support, rendered in
  Prometheus text exposition format (``render_prometheus``) by a
  stdlib ``http.server`` endpoint (:func:`start_metrics_server`) — no
  new dependencies.
* **Trace spans** — :meth:`Telemetry.span` is a context manager
  recording start/duration/outcome/error-kind per unit of work (stage,
  round, shard, worker) into an optional append-only JSONL sink,
  inspected offline by ``repro trace``.
* **Zero overhead by default** — telemetry is *disabled* unless
  configured.  Instrumented code asks the active :class:`Telemetry`
  for metric handles once (at construction) and receives shared no-op
  singletons while disabled, so the instrumentation cost of a
  disabled build is one no-op method call per event; the enabled cost
  is bounded as a count, not a timing: at most 8 more Python calls per
  ingested record (reading: +6.7 on 664) and 33 per served request
  (reading: +31 on 893), gated by
  ``tests/test_telemetry.py::TestEnabledCostInPythonCalls``.

Telemetry observes, never participates: enabling it must leave store
output byte-identical (``tests/test_telemetry.py`` pins this).

The active instance is process-global (:func:`configure` /
:func:`get`); spawned partition workers re-activate it from the
``TelemetryConfig`` pickled inside their ``PlatformConfig``, appending
to the same JSONL sink (one line per write keeps concurrent appends
intact on POSIX).
"""

from __future__ import annotations

import bisect
import enum
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .config import TelemetryConfig

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "SpanRecord",
    "TraceSink",
    "Telemetry",
    "configure",
    "get",
    "activate_from",
    "start_metrics_server",
    "parse_prometheus",
    "read_trace",
    "DEFAULT_BUCKETS",
]

#: Default histogram upper bounds (seconds): spans probe timeouts
#: (2 s), fetch deadlines (30 s) and sqlite commit latencies (ms).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class MetricKind(enum.Enum):
    COUNTER = "counter"
    GAUGE = "gauge"
    HISTOGRAM = "histogram"


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integral values without a trailing
    ``.0`` so text output stays diff-stable."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Counter:
    """Monotonic counter.  ``inc`` with a negative amount raises — a
    counter that can go down is a gauge."""

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value (queue depth, concurrency limit, pool size)."""

    __slots__ = ("_lock", "value")

    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: per-bucket counts, a count and a sum.

    ``bounds`` are *upper* bucket bounds, ascending; an implicit +Inf
    bucket catches the tail.  Quantiles are the scraper's business:
    the exposition carries the cumulative buckets that Prometheus's
    ``histogram_quantile`` reads.
    """

    __slots__ = ("_lock", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        if list(cleaned) != sorted(set(cleaned)):
            raise ValueError("bucket bounds must be strictly ascending")
        self._lock = threading.Lock()
        self.bounds = cleaned
        #: Per-bucket (non-cumulative) observation counts; the last
        #: slot is the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(cleaned) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value


_CHILD_TYPES = {
    MetricKind.COUNTER: Counter,
    MetricKind.GAUGE: Gauge,
    MetricKind.HISTOGRAM: Histogram,
}


class MetricFamily:
    """One named metric plus its labelled children.

    ``family.labels(stage="fetch")`` returns (creating on first use)
    the child for that label combination; a family declared with no
    label names has a single anonymous child and proxies
    ``inc``/``set``/``observe`` straight to it.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: MetricKind,
        label_names: tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self._buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}
        if not self.label_names:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self):
        if self.kind is MetricKind.HISTOGRAM:
            return Histogram(self._buckets)
        return _CHILD_TYPES[self.kind]()

    def labels(self, **labels: str):
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    def children(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    # -- no-label proxies ------------------------------------------------

    def _anonymous(self):
        if self._default is None:
            raise ValueError(
                f"metric {self.name} requires labels {self.label_names}"
            )
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._anonymous().inc(amount)

    def set(self, value: float) -> None:
        self._anonymous().set(value)

    def observe(self, value: float) -> None:
        self._anonymous().observe(value)


class _NoopMetric:
    """Shared do-nothing stand-in for every metric kind while telemetry
    is disabled: the disabled cost of an instrumentation point is one
    method call on this singleton."""

    __slots__ = ()

    def labels(self, **labels):
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NOOP_METRIC = _NoopMetric()


class MetricsRegistry:
    """Thread-safe collection of metric families.

    Registration is idempotent: asking for an existing name returns the
    existing family (kind and labels must match — two call sites
    disagreeing about a metric is a bug worth crashing on).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help_text: str,
        kind: MetricKind,
        labels: tuple[str, ...],
        buckets: Sequence[float],
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind is not kind or family.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{family.kind.value}{family.label_names}"
                    )
                return family
            family = MetricFamily(name, help_text, kind, tuple(labels), buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(
            name, help_text, MetricKind.COUNTER, labels, DEFAULT_BUCKETS
        )

    def gauge(
        self, name: str, help_text: str = "", labels: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(
            name, help_text, MetricKind.GAUGE, labels, DEFAULT_BUCKETS
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        return self._register(
            name, help_text, MetricKind.HISTOGRAM, labels, buckets
        )

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4 (what Prometheus scrapes)."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind.value}")
            for key, child in family.children():
                labels = _label_str(family.label_names, key)
                if family.kind is MetricKind.HISTOGRAM:
                    assert isinstance(child, Histogram)
                    cumulative = 0
                    for bound, bucket_count in zip(
                        child.bounds, child.bucket_counts
                    ):
                        cumulative += bucket_count
                        le = _label_str(
                            family.label_names + ("le",),
                            key + (_format_value(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}"
                        )
                    inf = _label_str(
                        family.label_names + ("le",), key + ("+Inf",)
                    )
                    lines.append(f"{family.name}_bucket{inf} {child.count}")
                    lines.append(
                        f"{family.name}_sum{labels} "
                        f"{_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    lines.append(
                        f"{family.name}{labels} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# trace spans


@dataclass(frozen=True)
class SpanRecord:
    """One completed unit of work, as journaled to the trace sink."""

    stage: str
    start: float                 # epoch seconds
    duration: float              # wall-clock seconds
    outcome: str                 # "ok" or "error"
    round_id: int | None = None
    shard: int | None = None
    worker: int | None = None
    error_kind: str | None = None

    def to_dict(self) -> dict:
        out = {
            "stage": self.stage,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "outcome": self.outcome,
        }
        for name in ("round_id", "shard", "worker", "error_kind"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanRecord":
        return cls(
            stage=data["stage"],
            start=data["start"],
            duration=data["duration"],
            outcome=data.get("outcome", "ok"),
            round_id=data.get("round_id"),
            shard=data.get("shard"),
            worker=data.get("worker"),
            error_kind=data.get("error_kind"),
        )


class TraceSink:
    """Append-only JSONL file of completed spans; with no *path* it
    keeps nothing.

    Each span is one ``write()`` of one newline-terminated line, so
    concurrent appenders (partition workers sharing the sink path)
    interleave whole records, never bytes.
    """

    def __init__(self, path: str | None = None):
        self._lock = threading.Lock()
        self.path = path
        self._handle = None
        self.dropped_writes = 0

    def record(self, span: SpanRecord) -> None:
        if self.path is None:
            return
        line = json.dumps(
            span.to_dict(), sort_keys=True, separators=(",", ":")
        ) + "\n"
        with self._lock:
            try:
                if self._handle is None:
                    self._handle = open(
                        self.path, "a", encoding="utf-8", buffering=1
                    )
                self._handle.write(line)
            except OSError:
                # Tracing must never take the pipeline down; a sink on
                # a full/readonly disk just stops journaling.
                self.dropped_writes += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class _Span:
    """Context manager produced by :meth:`Telemetry.span`.  Re-entrant
    spans nest naturally — each ``with`` owns its own timing — and an
    exception is recorded (outcome/error-kind) then re-raised."""

    __slots__ = ("_telemetry", "stage", "round_id", "shard", "worker",
                 "_begun", "_start")

    def __init__(self, telemetry, stage, round_id, shard, worker):
        self._telemetry = telemetry
        self.stage = stage
        self.round_id = round_id
        self.shard = shard
        self.worker = worker
        self._begun = 0.0
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.time()
        self._begun = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._begun
        record = SpanRecord(
            stage=self.stage,
            start=self._start,
            duration=duration,
            outcome="ok" if exc_type is None else "error",
            round_id=self.round_id,
            shard=self.shard,
            worker=self.worker,
            error_kind=exc_type.__name__ if exc_type is not None else None,
        )
        self._telemetry._finish_span(record)
        return False


class _NoopSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


# ----------------------------------------------------------------------
# the facade


class Telemetry:
    """The per-process telemetry facade: hands out metric handles (real
    or no-op) and owns the trace sink."""

    def __init__(self, config: TelemetryConfig | None = None):
        self.config = config or TelemetryConfig()
        self.enabled = self.config.enabled
        self.registry = MetricsRegistry()
        self.trace = TraceSink(
            path=self.config.trace_path if self.enabled else None
        )
        if self.enabled:
            self._span_seconds = self.registry.histogram(
                "repro_span_seconds",
                "Duration of traced spans by stage",
                labels=("stage",),
            )
            self._span_total = self.registry.counter(
                "repro_spans_total",
                "Completed traced spans by stage and outcome",
                labels=("stage", "outcome"),
            )

    # -- handles ---------------------------------------------------------

    def counter(self, name: str, help_text: str = "",
                labels: tuple[str, ...] = ()):
        if not self.enabled:
            return NOOP_METRIC
        return self.registry.counter(name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: tuple[str, ...] = ()):
        if not self.enabled:
            return NOOP_METRIC
        return self.registry.gauge(name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: tuple[str, ...] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not self.enabled:
            return NOOP_METRIC
        return self.registry.histogram(name, help_text, labels, buckets)

    # -- spans -----------------------------------------------------------

    def span(
        self,
        stage: str,
        *,
        round_id: int | None = None,
        shard: int | None = None,
        worker: int | None = None,
    ):
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, stage, round_id, shard, worker)

    def _finish_span(self, record: SpanRecord) -> None:
        self.trace.record(record)
        self._span_seconds.labels(stage=record.stage).observe(record.duration)
        self._span_total.labels(
            stage=record.stage, outcome=record.outcome
        ).inc()

    def close(self) -> None:
        self.trace.close()


# ----------------------------------------------------------------------
# process-global instance

_ACTIVE = Telemetry()
_ACTIVE_LOCK = threading.Lock()


def get() -> Telemetry:
    """The process's active telemetry (disabled no-op by default)."""
    return _ACTIVE


def configure(config: TelemetryConfig) -> Telemetry:
    """Install a fresh :class:`Telemetry` built from *config* as the
    process-global instance and return it.  Objects constructed before
    this call keep their old (usually no-op) handles — configure
    telemetry *before* building the platform."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE.close()
        _ACTIVE = Telemetry(config)
        return _ACTIVE


def activate_from(config: TelemetryConfig) -> Telemetry:
    """Idempotent activation used by :class:`~repro.core.platform.WhoWas`
    (and, through the pickled config, spawned partition workers): a
    no-op unless *config* asks for telemetry and the global instance
    is not already running an equal configuration."""
    if config.enabled and _ACTIVE.config != config:
        return configure(config)
    return _ACTIVE


# ----------------------------------------------------------------------
# Prometheus exposition endpoint (stdlib only)


def start_metrics_server(
    telemetry: Telemetry, port: int, host: str = "127.0.0.1",
    *, request_timeout: float = 5.0,
):
    """Serve ``/metrics`` (text exposition) and ``/healthz`` from a
    daemon thread.  Returns the ``HTTPServer`` —
    ``server.server_address[1]`` is the bound port (pass ``port=0`` for
    an ephemeral one); call ``server.shutdown()`` to stop.

    *request_timeout* bounds how long one connection may sit idle while
    its request line/headers are being read.  ``ThreadingHTTPServer``
    dedicates a thread per connection, so without it a slow-loris
    client (connect, send nothing — or a partial request line — and
    hold the socket) would pin handler threads forever; with it the
    socket times out, the handler logs nothing and the thread exits."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    if request_timeout <= 0:
        raise ValueError("request_timeout must be positive")

    class Handler(BaseHTTPRequestHandler):
        # socketserver applies this as the connection's socket timeout
        # in setup(); handle_one_request() treats the resulting
        # socket.timeout as a dead client and closes the connection,
        # bounding header read time per recv.
        timeout = request_timeout

        def do_GET(self):  # noqa: N802 - http.server API
            path = self.path.split("?", 1)[0]
            if path in ("/metrics", "/"):
                body = telemetry.registry.render_prometheus().encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif path == "/healthz":
                body = b"ok\n"
                content_type = "text/plain"
            else:
                self.send_error(404)
                return
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # quiet by design
            pass

    server = ThreadingHTTPServer((host, port), Handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-metrics", daemon=True
    )
    thread.start()
    return server


# ----------------------------------------------------------------------
# scrape-side helpers (repro watch / CI assertions)


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse exposition text into ``{(name, sorted_label_items): value}``.

    Covers the subset this module emits (no exemplars, no timestamps);
    used by ``repro watch`` and the CI monotonicity check, so the
    renderer and the parser round-trip each other."""
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            metric_part, value_part = line.rsplit(" ", 1)
            value = float(value_part)
        except ValueError:
            continue
        if "{" in metric_part:
            name, _, label_blob = metric_part.partition("{")
            label_blob = label_blob.rstrip("}")
            labels = []
            for piece in _split_labels(label_blob):
                key, _, raw = piece.partition("=")
                if raw.startswith('"') and raw.endswith('"'):
                    raw = raw[1:-1]
                labels.append((key, _unescape_label(raw)))
            samples[(name, tuple(sorted(labels)))] = value
        else:
            samples[(metric_part, ())] = value
    return samples


def _split_labels(blob: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quotes, honouring
    backslash escapes inside quoted values."""
    piece, quoted, escaped = [], False, False
    for char in blob:
        if escaped:
            piece.append(char)
            escaped = False
        elif char == "\\" and quoted:
            piece.append(char)
            escaped = True
        elif char == '"':
            quoted = not quoted
            piece.append(char)
        elif char == "," and not quoted:
            if piece:
                yield "".join(piece)
            piece = []
        else:
            piece.append(char)
    if piece:
        yield "".join(piece)


def _unescape_label(value: str) -> str:
    """Invert :func:`_escape_label`."""
    out, index = [], 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            following = value[index + 1]
            out.append("\n" if following == "n" else following)
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def read_trace(path: str) -> Iterable[SpanRecord]:
    """Stream spans from a JSONL trace sink, skipping torn/partial
    lines (a crash mid-append must not make the trace unreadable)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield SpanRecord.from_dict(json.loads(line))
            except (ValueError, KeyError):
                continue
