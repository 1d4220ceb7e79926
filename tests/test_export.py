"""Tests for CSV figure-data export."""

from __future__ import annotations

import csv

from repro.analysis import FigureExporter


class TestFigureExporter:
    def test_export_all(self, tmp_path, ec2_dataset, ec2_clustering):
        """The four series ``repro report --export`` writes; Figures 13
        and 14 need a cartography map, which the report has none of."""
        exporter = FigureExporter(ec2_dataset, ec2_clustering)
        written = exporter.export_all(tmp_path)
        assert [path.name for path in written] == [
            "fig08_timeseries.csv", "fig09_churn.csv",
            "fig10_cluster_change.csv", "fig12_ip_uptime_cdf.csv",
        ]
        for path in written:
            assert path.exists()
            with path.open() as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 2          # header + data

    def test_fig08_matches_analyzer(self, tmp_path, ec2_dataset,
                                    ec2_clustering):
        from repro.analysis import DynamicsAnalyzer

        exporter = FigureExporter(ec2_dataset, ec2_clustering)
        path = exporter.export_fig08(tmp_path / "f8.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        dynamics = DynamicsAnalyzer(ec2_dataset, ec2_clustering)
        assert [int(r["responsive_ips"]) for r in rows] == \
            dynamics.responsive_series()
        assert [int(r["day"]) for r in rows] == [
            ec2_dataset.timestamp_of(rid) for rid in ec2_dataset.round_ids
        ]

    def test_fig12_cdf_monotone(self, tmp_path, ec2_dataset, ec2_clustering):
        exporter = FigureExporter(ec2_dataset, ec2_clustering)
        path = exporter.export_fig12(tmp_path / "f12.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        cdf = [float(r["cdf"]) for r in rows]
        assert cdf == sorted(cdf)
        assert cdf[-1] == 1.0
        uptimes = [float(r["avg_ip_uptime_pct"]) for r in rows]
        assert uptimes == sorted(uptimes)

    def test_without_cartography_skips_vpc_figures(self, tmp_path,
                                                   ec2_dataset,
                                                   ec2_clustering):
        """The exporter has no cartography map, so Figures 13 and 14
        (VPC usage) are never written; bench_fig13/14 keep them."""
        exporter = FigureExporter(ec2_dataset, ec2_clustering)
        written = exporter.export_all(tmp_path)
        names = {p.name for p in written}
        assert "fig13_vpc_timeseries.csv" not in names
        assert "fig14_vpc_clusters.csv" not in names
        assert len(written) == 4
