"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def db_path(tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("cli") / "campaign.sqlite")
    code = main([
        "simulate", "--cloud", "ec2", "--ips", "1024", "--days", "8",
        "--seed", "3", "--out", path,
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "--out", "x.sqlite"])
        assert args.cloud == "ec2"
        assert args.ips == 4096


class TestSimulate(object):
    def test_creates_database(self, db_path):
        from repro.core.store import MeasurementStore

        store = MeasurementStore(db_path)
        rounds = store.rounds()
        assert len(rounds) >= 2
        assert rounds[0].responsive_count > 0
        store.close()

    def test_azure_cloud(self, tmp_path):
        path = str(tmp_path / "azure.sqlite")
        code = main([
            "simulate", "--cloud", "azure", "--ips", "512", "--days", "6",
            "--out", path,
        ])
        assert code == 0


class TestChaosSimulate:
    def test_chaos_rate_marks_degraded_rounds(self, tmp_path, capsys):
        path = str(tmp_path / "stormy.sqlite")
        code = main([
            "simulate", "--cloud", "ec2", "--ips", "512", "--days", "8",
            "--seed", "3", "--chaos-rate", "0.9", "--chaos-seed", "7",
            "--out", path,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "chaos: injecting" in output
        assert "degraded rounds" in output

        # The degraded flag is persisted, so `report` surfaces it too.
        assert main(["report", path, "--no-cluster"]) == 0
        assert "degraded rounds:" in capsys.readouterr().out

    def test_zero_chaos_rate_is_clean(self, db_path, capsys):
        """The module fixture ran without --chaos-rate: no degraded
        rounds and no chaos banner."""
        assert main(["report", db_path, "--no-cluster"]) == 0
        assert "degraded" not in capsys.readouterr().out


class TestReport:
    def test_report_runs(self, db_path, capsys):
        assert main(["report", db_path]) == 0
        output = capsys.readouterr().out
        assert "responsive" in output
        assert "port profiles" in output
        assert "clusters:" in output

    def test_report_without_clustering(self, db_path, capsys):
        assert main(["report", db_path, "--no-cluster"]) == 0
        assert "clusters:" not in capsys.readouterr().out

    def test_empty_database(self, tmp_path, capsys):
        from repro.core.store import MeasurementStore

        path = str(tmp_path / "empty.sqlite")
        MeasurementStore(path).close()
        assert main(["report", path]) == 1


class TestLookup:
    def test_lookup_known_ip(self, db_path, capsys):
        from repro.core.store import MeasurementStore

        store = MeasurementStore(db_path)
        ip = sorted(store.responsive_ips(store.rounds()[0].round_id))[0]
        store.close()
        from repro.cloudsim.addressing import int_to_ip

        assert main(["lookup", db_path, int_to_ip(ip)]) == 0
        output = capsys.readouterr().out
        assert "day" in output
        assert "ports=" in output

    def test_lookup_unknown_ip(self, db_path, capsys):
        assert main(["lookup", db_path, "9.9.9.9"]) == 0
        assert "never responsive" in capsys.readouterr().out


class TestAggregate:
    def test_emits_valid_private_json(self, db_path, capsys):
        assert main(["aggregate", db_path, "--cloud", "EC2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cloud"] == "EC2"
        assert "http://" not in json.dumps(payload)


class TestScan:
    def test_scan_localhost(self, tmp_path, capsys, monkeypatch):
        """The real-network scan subcommand against a local server."""
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                body = b"<html><title>cli scan</title></html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            targets = tmp_path / "targets.txt"
            targets.write_text("127.0.0.1\n")
            out = str(tmp_path / "scan.sqlite")
            # Redirect the well-known ports to the ephemeral test server
            # by monkeypatching the transport the CLI constructs: the
            # scan handler imports it from repro.core.transport when it
            # runs, so patch it there.
            import repro.core.transport as transport_module

            socket_transport = transport_module.SocketTransport
            port = server.server_address[1]
            monkeypatch.setattr(
                transport_module, "SocketTransport",
                lambda: socket_transport(port_map={80: port, 443: 1, 22: 1}),
            )
            code = main([
                "scan", "--targets", str(targets), "--out", out,
            ])
            assert code == 0
            assert "responsive=1" in capsys.readouterr().out
        finally:
            server.shutdown()

    def test_scan_empty_targets(self, tmp_path):
        targets = tmp_path / "none.txt"
        targets.write_text("")
        code = main([
            "scan", "--targets", str(targets),
            "--out", str(tmp_path / "x.sqlite"),
        ])
        assert code == 1


class TestReportExport:
    def test_export_csv_series(self, db_path, tmp_path, capsys):
        out = tmp_path / "csv"
        assert main(["report", db_path, "--export", str(out)]) == 0
        assert "CSV series" in capsys.readouterr().out
        assert (out / "fig08_timeseries.csv").exists()
