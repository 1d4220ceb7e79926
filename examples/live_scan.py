"""Scanning real sockets: WhoWas over the network transport.

The same scanner/fetcher pipeline that drives the simulator also speaks
real TCP.  This example starts a local HTTP server and points WhoWas at
127.0.0.1 through :class:`SocketTransport` — the exact setup to use
against live cloud ranges (with the published IP lists as targets and
the polite rate limits left at their defaults).

Run:  python examples/live_scan.py
"""

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.core.config import FetchConfig, PlatformConfig, ScanConfig
from repro.core.platform import WhoWas
from repro.core.transport import SocketTransport

LOCALHOST = (127 << 24) | 1

PAGE = b"""<html><head>
<title>Example Cloud Tenant</title>
<meta name="generator" content="WordPress 3.5.1">
<meta name="keywords" content="demo,example">
</head><body>
<h1>Example tenant</h1>
<script>var _gaq=[['_setAccount','UA-424242-1']];</script>
</body></html>"""


class TenantHandler(BaseHTTPRequestHandler):
    def do_GET(self):  # noqa: N802 (stdlib naming)
        body = b"User-agent: *\nDisallow: /private\n" \
            if self.path == "/robots.txt" else PAGE
        self.send_response(200)
        self.send_header(
            "Content-Type",
            "text/plain" if self.path == "/robots.txt" else "text/html",
        )
        self.send_header("Server", "nginx/1.4.1")
        self.send_header("X-Powered-By", "PHP/5.3.10")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), TenantHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    port = server.server_address[1]
    print(f"local tenant listening on 127.0.0.1:{port}")

    # port_map redirects the well-known ports to our local server; drop
    # it (and raise targets) to scan real, authorised ranges.
    transport = SocketTransport(port_map={80: port, 443: 1, 22: 1})
    platform = WhoWas(
        transport,
        config=PlatformConfig(
            scan=ScanConfig(probes_per_second=100, probe_timeout=1.0),
            fetch=FetchConfig(workers=8, timeout=5.0),
        ),
    )
    summary = platform.run_round([LOCALHOST], timestamp=0)
    print(f"round complete: responsive={summary.responsive} "
          f"available={summary.available}")

    for record in platform.history(LOCALHOST):
        features = record.features
        assert features is not None
        print("extracted features:")
        print(f"  title        : {features.title}")
        print(f"  server       : {features.server}")
        print(f"  powered by   : {features.powered_by}")
        print(f"  template     : {features.template}")
        print(f"  analytics id : {features.analytics_id}")
        print(f"  simhash      : {features.simhash:024x}")
    server.shutdown()


if __name__ == "__main__":
    main()
