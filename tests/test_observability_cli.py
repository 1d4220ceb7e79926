"""CLI observability surface: ``--json`` output modes, per-partition
attribution in ``repro stats``, ``repro trace``, and ``repro watch``.

The module fixture runs one 2-worker campaign with a trace sink so the
same database exercises the multi-process attribution path end to end.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core import telemetry
from repro.core.config import TelemetryConfig
from repro.core.records import PipelineStats
from repro.core.store import MeasurementStore
from repro.core.telemetry import Telemetry, start_metrics_server
from repro import dashboard


@pytest.fixture(scope="module")
def traced_db(tmp_path_factory) -> str:
    """A 2-worker campaign with tracing on: 2048 IPs → two shards per
    round, so both partitions do real work."""
    path = str(tmp_path_factory.mktemp("obs") / "traced.sqlite")
    code = main([
        "simulate", "--cloud", "ec2", "--ips", "2048", "--days", "8",
        "--seed", "3", "--workers", "2", "--out", path,
        "--trace-out", f"{path}.trace.jsonl",
    ])
    assert code == 0
    telemetry.configure(TelemetryConfig())
    return path


@pytest.fixture(autouse=True)
def _reset_telemetry_after():
    yield
    telemetry.configure(TelemetryConfig())


class TestRoundsJson:
    def test_round_trips_the_rounds_table(self, traced_db, capsys):
        assert main(["rounds", traced_db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        store = MeasurementStore(traced_db)
        expected = [dataclasses.asdict(info) for info in store.rounds()]
        store.close()
        assert payload["rounds"] == expected
        assert payload["in_progress"] == []
        assert len(payload["rounds"]) >= 2

    def test_json_on_empty_database(self, tmp_path, capsys):
        path = str(tmp_path / "empty.sqlite")
        MeasurementStore(path).close()
        assert main(["rounds", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"rounds": [], "in_progress": []}


class TestStatsJson:
    def test_round_trips_pipeline_stats(self, traced_db, capsys):
        assert main(["stats", traced_db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        store = MeasurementStore(traced_db)
        from repro.cli import _load_pipeline_stats

        for entry in payload:
            rebuilt = PipelineStats.from_dict(entry["stats"])
            stored = _load_pipeline_stats(store, entry["round_id"])
            assert rebuilt == stored
        store.close()

    def test_json_respects_round_filter(self, traced_db, capsys):
        assert main(["stats", traced_db, "--json", "--round", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["round_id"] for entry in payload] == [1]


class TestPartitionAttribution:
    def test_stats_carry_both_partitions(self, traced_db):
        store = MeasurementStore(traced_db)
        from repro.cli import _load_pipeline_stats

        stats = _load_pipeline_stats(store, 1)
        store.close()
        assert set(stats.partitions) == {"0", "1"}
        for stages in stats.partitions.values():
            assert "write" in stages

    def test_partition_sums_match_merged_stages(self, traced_db):
        store = MeasurementStore(traced_db)
        from repro.cli import _load_pipeline_stats

        stats = _load_pipeline_stats(store, 1)
        store.close()
        for name, merged in stats.stages.items():
            summed = sum(
                stages[name].items
                for stages in stats.partitions.values()
                if name in stages
            )
            assert summed == merged.items

    def test_text_output_renders_partition_lines(self, traced_db, capsys):
        assert main(["stats", traced_db, "--round", "1"]) == 0
        out = capsys.readouterr().out
        assert "partition 0" in out
        assert "partition 1" in out


class TestTrace:
    def test_sidecar_resolution_from_db_path(self, traced_db, capsys):
        assert main(["trace", traced_db]) == 0
        out = capsys.readouterr().out
        assert "span(s)" in out
        for stage in ("scan", "fetch", "extract", "write"):
            assert stage in out

    def test_stage_filter(self, traced_db, capsys):
        assert main(["trace", traced_db, "--stage", "fetch"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:-1]
        assert rows
        assert all(row.split()[0] == "fetch" for row in rows)

    def test_round_filter_and_limit(self, traced_db, capsys):
        assert main(["trace", traced_db, "--round", "1",
                     "--limit", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:-1]
        assert len(rows) == 2

    def test_json_mode(self, traced_db, capsys):
        assert main(["trace", traced_db, "--json", "--stage", "scan"]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert spans
        assert all(span["stage"] == "scan" for span in spans)
        assert all(span["duration"] >= 0 for span in spans)

    def test_both_workers_appear_in_trace(self, traced_db, capsys):
        assert main(["trace", traced_db, "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert {span.get("worker") for span in spans} >= {0, 1}

    def test_missing_trace_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "none.sqlite")]) == 1
        assert "no trace" in capsys.readouterr().err

    def test_no_matching_spans_fails(self, traced_db, capsys):
        assert main(["trace", traced_db, "--stage", "nope"]) == 1


class TestWatch:
    def _server(self):
        tel = Telemetry(TelemetryConfig(enabled=True))
        tel.counter("repro_records_written_total", "records").inc(100)
        tel.counter("repro_stage_items_total", "items",
                    labels=("stage",)).labels(stage="scan").inc(500)
        tel.counter("repro_rounds_total", "rounds",
                    labels=("status",)).labels(status="complete").inc(2)
        server = start_metrics_server(tel, 0)
        return tel, server

    def test_watch_draws_frames_and_exits(self, capsys):
        tel, server = self._server()
        port = server.server_address[1]
        try:
            code = main(["watch", f"127.0.0.1:{port}", "--frames", "2",
                         "--interval", "0.05", "--no-clear"])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("WhoWas telemetry") == 2
        assert "records: 100" in out
        assert "scan" in out

    def test_watch_unreachable_endpoint(self, capsys):
        assert main(["watch", "127.0.0.1:1", "--frames", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_watch_reports_endpoint_gone(self, capsys):
        tel, server = self._server()
        port = server.server_address[1]
        import threading

        threading.Timer(0.3, lambda: (server.shutdown(),
                                      server.server_close())).start()
        code = main(["watch", f"{port}", "--interval", "0.1",
                     "--no-clear"])
        assert code == 0
        assert "endpoint gone" in capsys.readouterr().out


class TestDashboard:
    def test_normalize_endpoint_variants(self):
        assert (dashboard.normalize_endpoint("9100")
                == "http://127.0.0.1:9100/metrics")
        assert (dashboard.normalize_endpoint("myhost:9100")
                == "http://myhost:9100/metrics")
        assert (dashboard.normalize_endpoint("http://h:1/metrics")
                == "http://h:1/metrics")

    def _samples(self, records):
        return {
            ("repro_records_written_total", ()): float(records),
            ("repro_stage_items_total", (("stage", "fetch"),)): 40.0,
            ("repro_queue_depth", (("queue", "fetch_extract"),)): 3.0,
            ("repro_rounds_total", (("status", "complete"),)): 1.0,
        }

    def test_render_computes_rates_from_deltas(self):
        previous = self._samples(100)
        current = self._samples(350)
        frame = dashboard.render_dashboard(current, previous, 2.5, "test")
        assert "records: 350 (100 rec/s)" in frame

    def test_render_first_frame_has_zero_rates(self):
        frame = dashboard.render_dashboard(self._samples(10), None, 0.0,
                                           "test")
        assert "(0 rec/s)" in frame

    def test_render_shows_queue_depth_next_to_stage(self):
        frame = dashboard.render_dashboard(self._samples(0), None, 0.0,
                                           "test")
        fetch_line = next(
            line for line in frame.splitlines()
            if line.startswith("fetch")
        )
        assert fetch_line.rstrip().endswith("3")

    def test_counter_reset_clamps_rate_to_zero(self):
        previous = self._samples(500)
        current = self._samples(100)
        frame = dashboard.render_dashboard(current, previous, 1.0, "test")
        assert "(0 rec/s)" in frame
