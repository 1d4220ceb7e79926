"""Figure-data export: CSV series behind the paper's plots.

Downstream users typically want to replot Figures 8–12 with their own
tooling; this module writes the underlying series to plain CSV files,
one per figure, using only data already computed by the analyzers.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .clustering import ClusteringResult
from .dataset import Dataset
from .dynamics import DynamicsAnalyzer
from .uptime import UptimeAnalyzer

__all__ = ["FigureExporter"]


class FigureExporter:
    """Writes the per-figure series of one campaign to CSV files."""

    def __init__(self, dataset: Dataset, clustering: ClusteringResult):
        self.dataset = dataset
        self.clustering = clustering
        self.dynamics = DynamicsAnalyzer(dataset, clustering)

    def export_all(self, directory: str | Path) -> list[Path]:
        """Write every exportable figure; returns the files written."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        return [
            self.export_fig08(directory / "fig08_timeseries.csv"),
            self.export_fig09(directory / "fig09_churn.csv"),
            self.export_fig10(directory / "fig10_cluster_change.csv"),
            self.export_fig12(directory / "fig12_ip_uptime_cdf.csv"),
        ]

    # ------------------------------------------------------------------

    def export_fig08(self, path: str | Path) -> Path:
        """Round, day, responsive, available, clusters."""
        rows = zip(
            self.dataset.round_ids,
            self.dynamics.responsive_series(),
            self.dynamics.available_series(),
            self.dynamics.cluster_series(),
        )
        return _write(
            path,
            ["round", "day", "responsive_ips", "available_ips", "clusters"],
            [
                [index, self.dataset.timestamp_of(rid), resp, avail, clusters]
                for index, (rid, resp, avail, clusters) in enumerate(rows)
            ],
        )

    def export_fig09(self, path: str | Path) -> Path:
        """Per-round status-change rates (% of probed space)."""
        series = self.dynamics.churn_series()
        return _write(
            path,
            ["round", "responsiveness_pct", "availability_pct",
             "cluster_pct", "overall_pct"],
            [
                [index + 1, entry["responsiveness"], entry["availability"],
                 entry["cluster"], entry["overall"]]
                for index, entry in enumerate(series)
            ],
        )

    def export_fig10(self, path: str | Path) -> Path:
        series = self.dynamics.cluster_change_series()
        return _write(
            path,
            ["round", "cluster_change_pct"],
            [[index + 1, value] for index, value in enumerate(series)],
        )

    def export_fig12(self, path: str | Path) -> Path:
        """CDF points of average IP uptime (clusters of size >= 2)."""
        analyzer = UptimeAnalyzer(self.dataset, self.clustering)
        values = analyzer.average_ip_uptime_distribution(min_size=2.0)
        total = len(values) or 1
        return _write(
            path,
            ["avg_ip_uptime_pct", "cdf"],
            [
                [value, (index + 1) / total]
                for index, value in enumerate(values)
            ],
        )


def _write(path: str | Path, header: list[str], rows: list[list]) -> Path:
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path
