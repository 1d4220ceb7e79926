"""Test doubles shared by scanner/fetcher/platform tests."""

from __future__ import annotations

import functools
import sys
import threading

from repro.core.records import PipelineStats
from repro.core.transport import HttpResponse, TransportError


def python_calls(fn):
    """Run *fn*; return (Python ``call`` events on every thread it
    uses, its result) -- a work proxy timing noise cannot blur."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    threading.setprofile(count)
    sys.setprofile(count)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return calls, result


async def run_shards_serially(platform, work_items, round_id, abort_event):
    """Oracle for ``WhoWas._run_shards``: the strictly sequential loop
    the streaming pipeline must stay byte-equivalent to — one shard at
    a time through the platform's own stage bodies, then one
    ``write_shard`` commit, before the next shard starts."""
    stats = PipelineStats(mode="serial")
    for work in work_items:
        if abort_event is not None and abort_event.is_set():
            return stats, True
        await platform._scan_shard(work)
        await platform._fetch_shard(work)
        await platform._extract_shard(work)
        if platform.store.write_shard(
            round_id, work.index, work.records,
            errors=work.errors, operations=work.operations,
            quarantine=work.quarantine,
        ):
            stats.shards_written += 1
            stats.records_written += len(work.records)
    return stats, False


def serial_oracle(platform):
    """Swap *platform*'s shard executor for the oracle above."""
    platform._run_shards = functools.partial(run_shards_serially, platform)
    return platform


class FakeTransport:
    """Scriptable transport: open ports and canned pages per IP."""

    def __init__(self):
        self.open_ports: dict[int, set[int]] = {}
        self.pages: dict[tuple[int, str], HttpResponse] = {}
        self.robots: dict[int, HttpResponse] = {}
        self.errors: dict[int, str] = {}
        self.probe_calls: list[tuple[int, int]] = []
        self.get_calls: list[tuple[int, str, str]] = []
        #: Per-(ip, port): number of failures before a probe succeeds.
        self.fail_first: dict[tuple[int, int], int] = {}
        #: Per-(ip, port): exception raised instead of returning False.
        self.probe_raises: dict[tuple[int, int], Exception] = {}

    def add_host(self, ip: int, ports, *, body: str = "<html></html>",
                 status: int = 200, content_type: str = "text/html",
                 robots_body: str | None = None):
        self.open_ports[ip] = set(ports)
        headers = {"Content-Type": content_type, "Server": "fake/1.0"}
        self.pages[(ip, "/")] = HttpResponse(
            status, headers, body.encode("utf-8")
        )
        if robots_body is not None:
            self.robots[ip] = HttpResponse(
                200, {"Content-Type": "text/plain"}, robots_body.encode()
            )

    async def probe(self, ip: int, port: int, timeout: float) -> bool:
        self.probe_calls.append((ip, port))
        key = (ip, port)
        if key in self.probe_raises:
            raise self.probe_raises[key]
        if self.fail_first.get(key, 0) > 0:
            self.fail_first[key] -= 1
            return False
        return port in self.open_ports.get(ip, set())

    async def get(self, ip: int, scheme: str, path: str, *, timeout: float,
                  max_body: int, headers=None) -> HttpResponse:
        self.get_calls.append((ip, scheme, path))
        if ip in self.errors:
            raise TransportError(self.errors[ip])
        if path in ("/robots.txt", "robots.txt"):
            if ip in self.robots:
                return self.robots[ip]
            return HttpResponse(404, {"Content-Type": "text/html"}, b"nope")
        response = self.pages.get((ip, path))
        if response is None:
            raise TransportError("connection refused")
        return HttpResponse(
            response.status_code, response.headers, response.body[:max_body]
        )
