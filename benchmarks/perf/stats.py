"""Summary statistics the benchmark reports and compares with."""

from __future__ import annotations

import statistics

from repro.serve.loadgen import percentile

#: Percentiles a timing may be reported at, ascending.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: A percentile is only reported with at least this many samples
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


def tail_percentile(values) -> tuple[float, float] | None:
    """``(q, value)`` for the highest candidate percentile that still
    has :data:`MIN_SAMPLES_BEYOND` samples above it, or None when even
    the median does not."""
    n = len(values)
    best = None
    for q in TAIL_CANDIDATES:
        # Rounded so 99.9 % of 10 000 is exactly 10 beyond, not 9.99….
        if round(n * (1.0 - q / 100.0), 9) >= MIN_SAMPLES_BEYOND:
            best = q
    if best is None:
        return None
    return best, percentile(values, best)


def summarize(values) -> dict:
    """Median, reportable tail and sample count of one timing."""
    values = list(values)
    out = {"n": len(values), "median": statistics.median(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out["tail_q"], out["tail"] = tail
    return out


def undisturbed(values, *, better: str = "lower") -> float:
    """The reading of a unit repeated within one run: its better
    quartile.  Interference — a paused vCPU, a busy neighbour — only
    ever slows a unit down, so the better quartile repeats from run to
    run where the median follows whatever share of the units was hit;
    the best unit alone would be set by one lucky stretch."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    # Inclusive: with two or three units the exclusive method leaves
    # the data's range.
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low if better == "lower" else high


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median — the spread the driver holds each bound against."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def range_share(values) -> float:
    """(max − min) / median."""
    return (max(values) - min(values)) / abs(statistics.median(values))
