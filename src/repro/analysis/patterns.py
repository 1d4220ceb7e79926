"""Cluster size-change patterns via PAA and tendency vectors (§8.1).

For each cluster the paper builds the vector of per-round IP counts,
reduces it with piecewise aggregate approximation (PAA) over 7-day
windows (median per window, robust to outliers), converts the reduced
vector into a −1/0/+1 *tendency vector* (Algorithm 1), merges repeated
values, and tabulates the resulting size-change patterns (Table 11:
"0", "0,1,0", "0,-1,0", …).  Pattern-0 clusters split into *ephemeral*
(median footprint zero) and *relatively stable* groups.
"""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass

from .clustering import ClusteringResult
from .dataset import Dataset

__all__ = [
    "paa_reduce",
    "tendency_vector",
    "merge_repeats",
    "size_change_pattern",
    "PatternBreakdown",
    "PatternAnalyzer",
]


def paa_reduce(values: list[float], timestamps: list[int],
               window_days: int = 7) -> list[float]:
    """Piecewise aggregate approximation with calendar windows.

    Because the scan interval is not constant (every 3 days, then
    daily), frames are 7-day windows of *timestamps*, not fixed-length
    chunks; each frame is represented by the median of its points.
    """
    if len(values) != len(timestamps):
        raise ValueError("values and timestamps must align")
    if not values:
        return []
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    start = timestamps[0]
    frames: dict[int, list[float]] = {}
    for value, timestamp in zip(values, timestamps):
        frames.setdefault((timestamp - start) // window_days, []).append(value)
    return [statistics.median(frames[index]) for index in sorted(frames)]


def tendency_vector(reduced: list[float]) -> list[int]:
    """Algorithm 1: pairwise comparison of consecutive PAA values."""
    tendency: list[int] = []
    for current, following in zip(reduced, reduced[1:]):
        if following > current:
            tendency.append(1)
        elif following == current:
            tendency.append(0)
        else:
            tendency.append(-1)
    return tendency


def merge_repeats(tendency: list[int]) -> tuple[int, ...]:
    """Collapse runs of repeated values: (0,1,1,0,-1,-1) -> (0,1,0,-1)."""
    merged: list[int] = []
    for value in tendency:
        if not merged or merged[-1] != value:
            merged.append(value)
    return tuple(merged)


def size_change_pattern(values: list[float], timestamps: list[int],
                        window_days: int = 7) -> tuple[int, ...]:
    """The full §8.1 pipeline for one cluster's size series."""
    reduced = paa_reduce(values, timestamps, window_days)
    if len(reduced) < 2:
        return (0,)
    return merge_repeats(tendency_vector(reduced)) or (0,)


def pattern_label(pattern: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in pattern)


@dataclass(frozen=True)
class PatternBreakdown:
    """Table 11 plus the pattern-0 subgroups of §8.1."""

    counts: dict[str, int]              # pattern label -> cluster count
    total_clusters: int
    ephemeral: int                      # pattern 0 with zero median size
    stable: int                         # pattern 0 with non-zero median
    always_available_same_size: int     # stable, present in every round

    def top(self, n: int = 5) -> list[tuple[str, int, float]]:
        ranked = sorted(self.counts.items(), key=lambda kv: -kv[1])[:n]
        return [
            (label, count, count / self.total_clusters * 100.0)
            for label, count in ranked
        ]


class PatternAnalyzer:
    """Computes size-change patterns for every final cluster."""

    def __init__(self, dataset: Dataset, clustering: ClusteringResult,
                 window_days: int = 7):
        self.dataset = dataset
        self.clustering = clustering
        self.window_days = window_days

    def cluster_size_series(self, cluster_id: int) -> tuple[list[int], list[int]]:
        """(sizes, timestamps) across all rounds for one cluster."""
        cluster = self.clustering.clusters[cluster_id]
        timestamps = [
            self.dataset.timestamp_of(rid) for rid in self.dataset.round_ids
        ]
        return cluster.size_by_round(self.dataset.round_ids), timestamps

    def breakdown(self) -> PatternBreakdown:
        counts: Counter[str] = Counter()
        ephemeral = 0
        stable = 0
        always_same = 0
        for cid in self.clustering.clusters:
            sizes, timestamps = self.cluster_size_series(cid)
            pattern = size_change_pattern(
                [float(v) for v in sizes], timestamps, self.window_days
            )
            counts[pattern_label(pattern)] += 1
            if pattern == (0,):
                if statistics.median(sizes) == 0:
                    ephemeral += 1
                else:
                    stable += 1
                    if all(size == sizes[0] for size in sizes) and sizes[0] > 0:
                        always_same += 1
        total = len(self.clustering.clusters)
        return PatternBreakdown(
            counts=dict(counts),
            total_clusters=total,
            ephemeral=ephemeral,
            stable=stable,
            always_available_same_size=always_same,
        )
