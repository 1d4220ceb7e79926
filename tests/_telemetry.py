"""Telemetry read the way the CLI reads it: ``repro watch`` parses the
Prometheus exposition and sums samples with
:func:`repro.dashboard.sample_total`; ``repro trace`` reads the JSONL
trace file with :func:`repro.core.telemetry.read_trace`."""

from __future__ import annotations

from repro.core.telemetry import (
    MetricsRegistry,
    SpanRecord,
    parse_prometheus,
    read_trace,
)
from repro.dashboard import sample_total


def metric(registry: MetricsRegistry, name: str, **labels: str) -> float:
    """The sum of *name*'s samples whose labels include *labels*, read
    from the registry's exposition text."""
    return sample_total(
        parse_prometheus(registry.render_prometheus()), name, **labels)


def spans(path) -> list[SpanRecord]:
    """Every span journaled to the trace file at *path*, in order."""
    return list(read_trace(str(path)))
