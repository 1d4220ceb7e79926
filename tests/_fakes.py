"""Test doubles shared by scanner/fetcher/platform tests."""

from __future__ import annotations

import asyncio
import functools
import sys
import threading
from dataclasses import dataclass

from repro.core.records import (
    FetchResult,
    FetchStatus,
    PipelineStats,
    ProbeOutcome,
    ProbeStatus,
    QuarantineRecord,
)
from repro.core.transport import ConnectTimeout, HttpResponse, TransportError


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


def fetch_all(fetcher, outcomes, quarantine=None) -> list[FetchResult]:
    """``fetcher.fetch`` on a fresh event loop, dead letters appended to
    *quarantine* (a throwaway list when not given)."""
    return asyncio.run(fetcher.fetch(
        outcomes, quarantine=[] if quarantine is None else quarantine))


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


def write_round(store, round_id, timestamp, targets_probed, records, *,
                degraded=False, error_count=0, quarantine=()):
    """One whole round through the shipped write protocol, as a single
    shard: ``begin_round`` → ``write_shard`` → ``finalize_round``."""
    store.begin_round(round_id, timestamp, targets_probed)
    store.write_shard(round_id, 0, records, errors=error_count,
                      quarantine=quarantine)
    return store.finalize_round(
        round_id, degraded=degraded, error_count=error_count)


@dataclass
class ReferenceScan:
    """What :func:`reference_scan` saw: the scanner's outcomes and
    counters, by the same names."""

    outcomes: list[ProbeOutcome]
    probes_sent: int = 0
    probe_errors: int = 0


def reference_scan(transport, config, ips, blacklist=()) -> ReferenceScan:
    """Oracle for ``Scanner.scan``: the scanner's old per-IP loop, one
    target at a time in input order.  Web ports 80 and 443 first (each
    retried while it fails, up to ``config.retries`` times), port 22
    only when no web port opened, the last classified error carried
    across ports.  Imports nothing from ``scanner.py``."""
    seen = ReferenceScan(outcomes=[])

    async def probe(ip, port, error_class):
        for _ in range(1 + config.retries):
            seen.probes_sent += 1
            try:
                if await transport.probe(ip, port, config.probe_timeout):
                    return True, error_class
            except TransportError as exc:
                seen.probe_errors += 1
                error_class = exc.kind
        return False, error_class

    async def scan_one(ip):
        if ip in blacklist:
            return ProbeOutcome(ip=ip, status=ProbeStatus.SKIPPED)
        open_ports: set[int] = set()
        error_class = None
        for port in (80, 443):
            opened, error_class = await probe(ip, port, error_class)
            if opened:
                open_ports.add(port)
        if not open_ports:
            opened, error_class = await probe(ip, 22, error_class)
            if opened:
                open_ports.add(22)
        if open_ports:
            return ProbeOutcome(ip=ip, status=ProbeStatus.RESPONSIVE,
                                open_ports=frozenset(open_ports))
        return ProbeOutcome(ip=ip, status=ProbeStatus.UNRESPONSIVE,
                            error_class=error_class)

    async def run():
        for ip in ips:
            seen.outcomes.append(await scan_one(ip))

    asyncio.run(run())
    return seen


@dataclass
class ReferenceFetch:
    """What :func:`reference_fetch` saw, by the names the fetcher and
    the platform's banner grab use."""

    results: list[FetchResult]
    banners: dict[int, str]
    quarantine: list[QuarantineRecord]
    gets_sent: int = 0
    fetch_errors: int = 0
    tasks_run: int = 0


def reference_fetch(transport, config, outcomes, *, ssh_timeout=2.0,
                    round_id=0, timestamp=0) -> ReferenceFetch:
    """Oracle for a shard's fetch stage (``Fetcher.fetch`` plus the SSH
    banner grab): one responsive IP at a time, in input order —
    robots.txt, then the page, then the banner.  An exception that is not a classified transport
    error costs the IP its result and writes a ``task-error`` quarantine
    record.  Handles the robots.txt bodies and charset-free content
    types the tests serve; imports nothing from ``fetcher.py``."""
    seen = ReferenceFetch(results=[], banners={}, quarantine=[])
    kwargs = {"timeout": config.timeout, "max_body": 512 * 1024,
              "headers": {"User-Agent": config.user_agent}}

    def trapped(ip, stage, exc):
        seen.quarantine.append(QuarantineRecord(
            ip=ip, round_id=round_id, timestamp=timestamp, stage=stage,
            verdict="task-error", error_class=type(exc).__name__,
            error=str(exc)[:200], payload=""))

    async def fetch_one(outcome):
        ip, scheme = outcome.ip, outcome.scheme
        if scheme is None:
            return FetchResult(ip=ip, status=FetchStatus.NOT_ATTEMPTED)
        dotted = ".".join(str(ip >> shift & 255) for shift in (24, 16, 8, 0))
        url = f"{scheme}://{dotted}/"
        try:
            seen.gets_sent += 1
            try:
                robots = await transport.get(
                    ip, scheme, "/robots.txt", **kwargs)
            except TransportError:
                robots = None
            if (robots is not None and robots.status_code == 200
                    and "Disallow: /" in robots.body.decode().split("\n")):
                return FetchResult(
                    ip=ip, status=FetchStatus.ROBOTS_DISALLOWED, url=url)
            seen.gets_sent += 1
            try:
                response = await transport.get(ip, scheme, "/", **kwargs)
            except TransportError as error:
                seen.fetch_errors += 1
                return FetchResult(ip=ip, status=FetchStatus.ERROR, url=url,
                                   error=str(error), error_class=error.kind)
            content_type = response.headers.get("Content-Type", "")
            body = None
            if config.should_download(content_type.split(";")[0].lower()):
                body = response.body[:kwargs["max_body"]].decode(
                    "utf-8", errors="replace")
            return FetchResult(ip=ip, status=FetchStatus.OK, url=url,
                               status_code=response.status_code,
                               headers=dict(response.headers), body=body)
        except Exception as exc:
            seen.fetch_errors += 1
            trapped(ip, "fetch", exc)
            return FetchResult(ip=ip, status=FetchStatus.ERROR, url=url,
                               error=str(exc), error_class="transport-error")

    async def banner_of(ip):
        try:
            return await transport.banner(ip, 22, ssh_timeout)
        except TransportError:
            return None
        except Exception as exc:
            trapped(ip, "banner", exc)
            return None

    async def run():
        for outcome in outcomes:
            if not outcome.responsive:
                continue
            if outcome.wants_fetch:
                seen.tasks_run += 1
                seen.results.append(await fetch_one(outcome))
            if 22 in outcome.open_ports:
                seen.tasks_run += 1
                banner = await banner_of(outcome.ip)
                if banner:
                    seen.banners[outcome.ip] = banner

    asyncio.run(run())
    return seen


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
        #: Per-(ip, path): GETs that time out before one succeeds.
        self.get_fail_first: dict[tuple[int, str], int] = {}
        #: Per-(ip, path): exception every GET raises.
        self.get_raises: dict[tuple[int, str], Exception] = {}
        #: SSH banners per IP, and exceptions raised instead of one.
        self.banners: dict[int, str] = {}
        self.banner_raises: dict[int, Exception] = {}
        self.banner_calls: list[int] = []

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

    def enable_probe_many(self) -> "FakeTransport":
        """Opt in to :class:`~repro.core.transport.BatchProbe`: the
        scanner then drains its queue through :meth:`_probe_many`."""
        self.probe_many = self._probe_many
        return self

    async def _probe_many(self, targets, timeout: float) -> list:
        results = []
        for ip, port in targets:
            try:
                results.append(await self.probe(ip, port, timeout))
            except TransportError as exc:
                results.append(exc)
        return results

    def enable_get_many(self) -> "FakeTransport":
        """Opt in to :class:`~repro.core.transport.BatchGet`: the fetcher
        and the banner grab then send a pass at a time."""
        self.get_many = self._get_many
        self.banner_many = self._banner_many
        return self

    async def _get_many(self, requests, *, timeout, max_body,
                        headers=None) -> list:
        answers = []
        for ip, scheme, path in requests:
            try:
                answers.append(await self.get(
                    ip, scheme, path, timeout=timeout, max_body=max_body,
                    headers=headers))
            except Exception as exc:
                answers.append(exc)
        return answers

    async def _banner_many(self, targets, timeout) -> list:
        answers = []
        for ip, port in targets:
            try:
                answers.append(await self.banner(ip, port, timeout))
            except Exception as exc:
                answers.append(exc)
        return answers

    async def banner(self, ip: int, port: int, timeout: float) -> str:
        self.banner_calls.append(ip)
        if ip in self.banner_raises:
            raise self.banner_raises[ip]
        if ip not in self.banners:
            raise TransportError("no banner")
        return self.banners[ip]

    async def get(self, ip: int, scheme: str, path: str, *, timeout: float,
                  max_body: int, headers=None) -> HttpResponse:
        self.get_calls.append((ip, scheme, path))
        key = (ip, path)
        if key in self.get_raises:
            raise self.get_raises[key]
        if self.get_fail_first.get(key, 0) > 0:
            self.get_fail_first[key] -= 1
            raise ConnectTimeout("injected")
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
