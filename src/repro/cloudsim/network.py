"""SimulatedTransport: the cloud simulator's network face.

Implements the same :class:`~repro.core.transport.Transport` protocol as
the real-socket transport, so the WhoWas scanner and fetcher run against
the simulator unmodified; it is also the one
:class:`~repro.core.transport.BatchProbe` and
:class:`~repro.core.transport.BatchGet`, so the scanner hands it a
shard's probes, and the fetcher a shard's GETs and banner reads, a pass
at a time.  Probes honour per-(ip, day) latency and
flakiness (driving the §4 timeout experiment); HTTP responses carry the
owning service's software headers and rendered page.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from ..core.transport import (
    ConnectionRefused,
    ConnectTimeout,
    HttpResponse,
    ProtocolError,
    TransportError,
)
from .services import ServiceSpec
from .simulation import CloudSimulation

__all__ = ["SimulatedTransport"]

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def _raised(answer):
    """A single call's answer: raise it if the batch slot holds a
    failure."""
    if isinstance(answer, Exception):
        raise answer
    return answer


class _Host(NamedTuple):
    """What an occupied IP answers with today, read from the
    simulation's per-call accessors once per (IP, day)."""

    service: ServiceSpec
    open_ports: frozenset[int]
    latency: float
    flaky: bool
    #: The day's HTTP roll; False for a service that serves no web.
    web_up: bool


class SimulatedTransport:
    """Answers probes and GETs from the simulation's ground truth.

    Answers come from two tables that live for one simulated day: a row
    per occupied IP (:class:`_Host`), filled on the IP's first probe,
    banner read or GET of the day, and one response per service, path
    and body cap, since every IP of a service serves the same robots.txt
    and page on a given day.  Both are dropped, with the flaky-drop
    attempt counter, when the transport first sees a new day, so they
    never hold more than one day's occupied hosts."""

    def __init__(self, simulation: CloudSimulation):
        self.simulation = simulation
        #: Encoded page bodies by service, version and page.
        self._page_cache: dict[tuple, bytes] = {}
        self._day = simulation.day
        self._hosts: dict[int, _Host] = {}
        self._responses: dict[tuple[int, str, int], HttpResponse] = {}
        self._attempts: Counter[tuple[int, int]] = Counter()
        #: Counters for politeness auditing in tests and ethics checks.
        self.probe_count = 0
        self.get_count = 0

    # ------------------------------------------------------------------
    # the day's tables

    def _today(self) -> dict[int, _Host]:
        """The host table, emptied first if the simulation has moved on
        to a new day."""
        day = self.simulation.day
        if day != self._day:
            self._day = day
            self._hosts.clear()
            self._responses.clear()
            self._attempts.clear()
        return self._hosts

    def _fill(self, ip: int) -> _Host:
        """Build and keep today's row for the occupied *ip*."""
        sim = self.simulation
        day = sim.day
        service = sim.services[sim.owner_of(ip)]
        host = self._hosts[ip] = _Host(
            service,
            service.port_profile.open_ports,
            sim.probe_latency(ip, day),
            sim.is_flaky(ip, day),
            service.serves_web and sim.service_web_up(service, ip, day),
        )
        return host

    def _host(self, ip: int) -> _Host | None:
        """Today's row for *ip*, or None if it is idle."""
        host = self._today().get(ip)
        if host is None and ip in self.simulation._owner:
            host = self._fill(ip)
        return host

    # ------------------------------------------------------------------
    # Transport protocol

    async def probe(self, ip: int, port: int, timeout: float) -> bool:
        return self._probe_all(((ip, port),), timeout)[0]

    async def probe_many(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[bool]:
        """:class:`~repro.core.transport.BatchProbe`: the simulator
        answers without waiting, so a batch is a plain loop (and never
        holds a classified failure — simulated probes only time out)."""
        return self._probe_all(targets, timeout)

    def _probe_all(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[bool]:
        self.probe_count += len(targets)
        hosts = self._today()
        owner = self.simulation._owner
        fill = self._fill
        attempts = self._attempts
        flaky_drop = self.simulation.flaky_drop
        day = self._day
        answers = []
        for ip, port in targets:
            if ip not in owner:
                answers.append(False)
                continue
            host = hosts.get(ip) or fill(ip)
            if port not in host.open_ports or host.latency > timeout:
                answers.append(False)
            elif host.flaky:
                key = (ip, port)
                attempt = attempts[key]
                attempts[key] = attempt + 1
                answers.append(not flaky_drop(ip, day, attempt))
            else:
                answers.append(True)
        return answers

    async def banner(self, ip: int, port: int, timeout: float) -> str:
        return _raised(self._banners(((ip, port),), timeout)[0])

    async def banner_many(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[str | Exception]:
        """:class:`~repro.core.transport.BatchGet`: one banner (or the
        exception ``banner`` would have raised) per ``(ip, port)``."""
        return self._banners(targets, timeout)

    def _banners(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[str | TransportError]:
        host_of = self._host
        answers: list[str | TransportError] = []
        for ip, port in targets:
            host = host_of(ip)
            if host is None or port not in host.open_ports:
                answers.append(ConnectionRefused("connection refused"))
            elif port != 22 or not host.service.ssh_banner:
                answers.append(TransportError("no banner"))
            elif host.latency > timeout:
                answers.append(ConnectTimeout("banner read timed out"))
            else:
                answers.append(host.service.ssh_banner)
        return answers

    async def get(
        self,
        ip: int,
        scheme: str,
        path: str,
        *,
        timeout: float,
        max_body: int,
        headers=None,
    ) -> HttpResponse:
        return _raised(self._gets(((ip, scheme, path),), max_body)[0])

    async def get_many(
        self,
        requests: Sequence[tuple[int, str, str]],
        *,
        timeout: float,
        max_body: int,
        headers=None,
    ) -> list[HttpResponse | Exception]:
        """:class:`~repro.core.transport.BatchGet`: the simulator answers
        without waiting, so a batch is a plain loop; a failure sits in
        its slot instead of being raised."""
        return self._gets(requests, max_body)

    def _gets(
        self, requests: Sequence[tuple[int, str, str]], max_body: int
    ) -> list[HttpResponse | TransportError]:
        self.get_count += len(requests)
        host_of = self._host
        # Every IP of a service answers a path alike on a given day, and
        # an HttpResponse is frozen, so one object serves them all.
        responses = self._responses
        answers: list[HttpResponse | TransportError] = []
        for ip, scheme, path in requests:
            host = host_of(ip)
            port = 443 if scheme == "https" else 80
            if host is None:
                answers.append(ConnectionRefused("connection refused"))
            elif port not in host.open_ports:
                answers.append(ConnectionRefused(f"port {port} closed"))
            elif not host.web_up:
                answers.append(
                    ConnectTimeout("connection timed out")
                    if host.service.serves_web
                    else ProtocolError("connection reset by peer"))
            else:
                service = host.service
                key = (service.service_id, path, max_body)
                response = responses.get(key)
                if response is None:
                    response = responses[key] = self._respond(
                        service, path, max_body)
                answers.append(response)
        return answers

    # ------------------------------------------------------------------
    # response synthesis

    def _respond(self, service: ServiceSpec, path: str,
                 max_body: int) -> HttpResponse:
        if path in ("/robots.txt", "robots.txt"):
            return self._robots_response(service)
        if path in ("", "/"):
            return self._page_response(service, max_body)
        body = b"<html><title>404 Not Found</title></html>"
        return HttpResponse(
            404, self._base_headers(service, "text/html", len(body)), body
        )

    def _robots_response(self, service: ServiceSpec) -> HttpResponse:
        profile = service.profile
        assert profile is not None
        if profile.robots_disallow:
            body = b"User-agent: *\nDisallow: /\n"
            return HttpResponse(
                200, self._base_headers(service, "text/plain", len(body)), body
            )
        # Most tenants simply have no robots.txt.
        body = b"Not Found"
        return HttpResponse(
            404, self._base_headers(service, "text/html", len(body)), body
        )

    def _page_response(self, service: ServiceSpec,
                       max_body: int) -> HttpResponse:
        profile = service.profile
        assert profile is not None
        active_urls: tuple[str, ...] = ()
        if service.malicious is not None and service.malicious.on_page:
            active_urls = service.malicious.active_urls(
                service.day_in_life(self.simulation.day))
        cache_key = (
            service.service_id,
            service.major_version,
            service.revision,
            active_urls,
        )
        encoded = self._page_cache.get(cache_key)
        if encoded is None:
            rendered = profile
            if active_urls:
                rendered = profile.with_malicious_links(active_urls)
            encoded = rendered.render(
                service.major_version, service.revision).encode("utf-8")
            self._page_cache[cache_key] = encoded
        body = encoded[:max_body]
        headers = self._base_headers(service, profile.content_type, len(body))
        return HttpResponse(profile.status_code, headers, body)

    def _base_headers(
        self, service: ServiceSpec, content_type: str, length: int
    ) -> dict[str, str]:
        day = self.simulation.day
        headers = {
            "Date": f"{_WEEKDAYS[day % 7]}, {day % 28 + 1:02d} Oct 2013 00:00:00 GMT",
            "Content-Type": (
                f"{content_type}; charset=utf-8"
                if content_type.startswith("text/") else content_type
            ),
            "Content-Length": str(length),
            "Connection": "close",
        }
        stack = service.stack
        if stack is not None:
            if stack.server:
                headers["Server"] = stack.server
            if stack.backend:
                headers["X-Powered-By"] = stack.backend
            if stack.server_family == "Apache":
                headers["Accept-Ranges"] = "bytes"
                headers["Vary"] = "Accept-Encoding"
            elif stack.server_family == "Microsoft-IIS":
                headers["X-AspNet-Version"] = "4.0.30319"
            elif stack.server_family == "nginx":
                headers["Accept-Ranges"] = "bytes"
        return headers
