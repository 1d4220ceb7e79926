"""Integration tests: SocketTransport against a localhost HTTP server."""

from __future__ import annotations

import asyncio
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.core.config import ScanConfig
from repro.core.records import ProbeStatus
from repro.core.scanner import Scanner
from repro.core.transport import SocketTransport, TransportError

LOCALHOST = (127 << 24) | 1


class Handler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (stdlib naming)
        if self.path == "/robots.txt":
            body = b"User-agent: *\nDisallow: /private\n"
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
        elif self.path == "/chunky":
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for chunk in (b"<html>", b"hello chunked", b"</html>"):
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
            self.wfile.write(b"0\r\n\r\n")
            return
        elif self.path == "/big":
            body = b"x" * 100_000
            self.send_response(200)
            self.send_header("Content-Type", "text/plain")
        else:
            body = b"<html><title>local</title>served by test</html>"
            self.send_response(200)
            self.send_header("Content-Type", "text/html")
            self.send_header("Server", "TestServer/1.0")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence test output
        pass


@pytest.fixture(scope="module")
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()


class TestSocketTransport:
    def test_probe_open_port(self, http_server):
        transport = SocketTransport(port_map={80: http_server})
        assert asyncio.run(transport.probe(LOCALHOST, 80, timeout=2.0))

    def test_probe_closed_port(self):
        transport = SocketTransport(port_map={80: 1})  # port 1: closed
        assert not asyncio.run(transport.probe(LOCALHOST, 80, timeout=0.5))

    def test_get_page(self, http_server):
        transport = SocketTransport(port_map={80: http_server})
        response = asyncio.run(
            transport.get(LOCALHOST, "http", "/", timeout=5.0, max_body=65536)
        )
        assert response.status_code == 200
        assert b"local" in response.body
        assert response.header("Server") == "TestServer/1.0"
        assert response.content_type == "text/html"

    def test_get_robots(self, http_server):
        transport = SocketTransport(port_map={80: http_server})
        response = asyncio.run(
            transport.get(LOCALHOST, "http", "/robots.txt", timeout=5.0,
                          max_body=65536)
        )
        assert b"Disallow" in response.body

    def test_chunked_transfer(self, http_server):
        transport = SocketTransport(port_map={80: http_server})
        response = asyncio.run(
            transport.get(LOCALHOST, "http", "/chunky", timeout=5.0,
                          max_body=65536)
        )
        assert b"hello chunked" in response.body

    def test_body_capped(self, http_server):
        transport = SocketTransport(port_map={80: http_server})
        response = asyncio.run(
            transport.get(LOCALHOST, "http", "/big", timeout=5.0,
                          max_body=1024)
        )
        assert len(response.body) <= 1024

    def test_get_refused_raises(self):
        transport = SocketTransport(port_map={80: 1})
        with pytest.raises(TransportError):
            asyncio.run(
                transport.get(LOCALHOST, "http", "/", timeout=1.0,
                              max_body=1024)
            )

    def test_custom_headers_sent(self, http_server):
        seen = {}

        class EchoHandler(Handler):
            def do_GET(self):  # noqa: N802
                seen["ua"] = self.headers.get("User-Agent")
                super().do_GET()

        server = ThreadingHTTPServer(("127.0.0.1", 0), EchoHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = SocketTransport(port_map={80: server.server_address[1]})
            asyncio.run(
                transport.get(
                    LOCALHOST, "http", "/", timeout=5.0, max_body=1024,
                    headers={"User-Agent": "WhoWas-test"},
                )
            )
            assert seen["ua"] == "WhoWas-test"
        finally:
            server.shutdown()


class TestWhoWasOverSockets:
    def test_full_pipeline_against_local_server(self, http_server):
        """The real-network transport drives the full platform."""
        from repro.core.config import FetchConfig, PlatformConfig, ScanConfig
        from repro.core.platform import WhoWas

        transport = SocketTransport(port_map={80: http_server, 443: 1, 22: 1})
        platform = WhoWas(
            transport,
            config=PlatformConfig(
                scan=ScanConfig(probes_per_second=1e6, probe_timeout=1.0),
                fetch=FetchConfig(workers=4, timeout=5.0),
            ),
        )
        summary = platform.run_round([LOCALHOST], timestamp=0)
        assert summary.responsive == 1
        assert summary.available == 1
        history = platform.history(LOCALHOST)
        assert len(history) == 1
        assert history[0].features.title == "local"


class RecordingSockets(SocketTransport):
    """SocketTransport that remembers which ports it was asked for."""

    def __init__(self, port_map):
        super().__init__(port_map=port_map)
        self.ports: list[int] = []

    async def probe(self, ip, port, timeout):
        self.ports.append(port)
        return await super().probe(ip, port, timeout)


class TestScannerOverSockets:
    """The scanner's per-probe drain over real connects (SocketTransport
    has no ``probe_many``); port 1 stands in for a closed port."""

    def scan(self, port_map):
        transport = RecordingSockets(port_map)
        scanner = Scanner(transport, ScanConfig(
            probes_per_second=1e6, probe_timeout=1.0))
        (outcome,) = asyncio.run(scanner.scan([LOCALHOST]))
        return outcome, scanner, transport

    def test_open_web_port_skips_the_fallback(self, http_server):
        outcome, scanner, transport = self.scan(
            {80: http_server, 443: 1, 22: 1})
        assert outcome.status is ProbeStatus.RESPONSIVE
        assert outcome.open_ports == {80}
        assert scanner.probes_sent == 2
        assert sorted(transport.ports) == [80, 443]

    def test_all_closed_probes_the_fallback_last(self):
        outcome, scanner, transport = self.scan({80: 1, 443: 1, 22: 1})
        assert outcome.status is ProbeStatus.UNRESPONSIVE
        assert scanner.probes_sent == 3
        assert transport.ports[-1] == 22
        assert sorted(transport.ports[:2]) == [80, 443]
