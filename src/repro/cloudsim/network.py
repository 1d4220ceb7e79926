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
from functools import partial
from typing import Sequence

from ..core.transport import (
    ConnectionRefused,
    ConnectTimeout,
    HttpResponse,
    ProtocolError,
    TransportError,
)
from .services import ServiceSpec
from .simulation import CloudSimulation, HostState

__all__ = ["SimulatedTransport"]

_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def _answer_each(call, requests) -> list:
    """``call(*request)`` for each request: its result, or the exception
    it raised, in the request's slot."""
    answers = []
    for request in requests:
        try:
            answers.append(call(*request))
        except Exception as exc:
            answers.append(exc)
    return answers


class SimulatedTransport:
    """Answers probes and GETs from the simulation's ground truth."""

    def __init__(self, simulation: CloudSimulation):
        self.simulation = simulation
        self._page_cache: dict[tuple, str] = {}
        self._attempts: Counter[tuple[int, int, int]] = Counter()
        #: Counters for politeness auditing in tests and ethics checks.
        self.probe_count = 0
        self.get_count = 0

    # ------------------------------------------------------------------
    # Transport protocol

    async def probe(self, ip: int, port: int, timeout: float) -> bool:
        return self._probe(ip, port, timeout)

    async def probe_many(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[bool]:
        """:class:`~repro.core.transport.BatchProbe`: the simulator
        answers without waiting, so a batch is a plain loop (and never
        holds a classified failure — simulated probes only time out)."""
        probe = self._probe
        return [probe(ip, port, timeout) for ip, port in targets]

    def _probe(self, ip: int, port: int, timeout: float) -> bool:
        self.probe_count += 1
        sim = self.simulation
        day = sim.day
        state = sim.host_state(ip)
        if state is None or port not in state.open_ports:
            return False
        if sim.probe_latency(ip, day) > timeout:
            return False
        if sim.is_flaky(ip, day):
            key = (ip, port, day)
            attempt = self._attempts[key]
            self._attempts[key] += 1
            if sim.flaky_drop(ip, day, attempt):
                return False
        return True

    async def banner(self, ip: int, port: int, timeout: float) -> str:
        return self._banner(ip, port, timeout)

    async def banner_many(
        self, targets: Sequence[tuple[int, int]], timeout: float
    ) -> list[str | Exception]:
        """:class:`~repro.core.transport.BatchGet`: one banner (or the
        exception ``banner`` would have raised) per ``(ip, port)``."""
        return _answer_each(partial(self._banner, timeout=timeout), targets)

    def _banner(self, ip: int, port: int, timeout: float) -> str:
        sim = self.simulation
        state = sim.host_state(ip)
        if state is None or port not in state.open_ports:
            raise ConnectionRefused("connection refused")
        if port != 22 or not state.service.ssh_banner:
            raise TransportError("no banner")
        if sim.probe_latency(ip, sim.day) > timeout:
            raise ConnectTimeout("banner read timed out")
        return state.service.ssh_banner

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
        return self._get(ip, scheme, path, max_body)

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
        return _answer_each(partial(self._get, max_body=max_body), requests)

    def _get(self, ip: int, scheme: str, path: str,
             max_body: int) -> HttpResponse:
        self.get_count += 1
        sim = self.simulation
        state = sim.host_state(ip)
        if state is None:
            raise ConnectionRefused("connection refused")
        service = state.service
        port = 443 if scheme == "https" else 80
        if port not in state.open_ports:
            raise ConnectionRefused(f"port {port} closed")
        if not service.serves_web:
            raise ProtocolError("connection reset by peer")
        if not sim.service_web_up(service, ip, sim.day):
            raise ConnectTimeout("connection timed out")
        if path in ("/robots.txt", "robots.txt"):
            return self._robots_response(service)
        return self._page_response(state, path, max_body)

    # ------------------------------------------------------------------
    # response synthesis

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

    def _page_response(self, state: HostState, path: str,
                       max_body: int) -> HttpResponse:
        service = state.service
        profile = service.profile
        assert profile is not None
        if path not in ("", "/"):
            return self._subpage_response(service, path, max_body)
        active_urls: tuple[str, ...] = ()
        if service.malicious is not None and service.malicious.on_page:
            active_urls = service.malicious.active_urls(state.day_in_life)
        cache_key = (
            service.service_id,
            service.major_version,
            service.revision,
            hash(active_urls),
        )
        body_text = self._page_cache.get(cache_key)
        if body_text is None:
            rendered = profile
            if active_urls:
                rendered = profile.with_malicious_links(active_urls)
            body_text = rendered.render(service.major_version, service.revision)
            self._page_cache[cache_key] = body_text
        body = body_text.encode("utf-8")[:max_body]
        headers = self._base_headers(service, profile.content_type, len(body))
        return HttpResponse(profile.status_code, headers, body)

    def _subpage_response(self, service: ServiceSpec, path: str,
                          max_body: int) -> HttpResponse:
        profile = service.profile
        assert profile is not None
        if profile.status_code != 200 or path not in profile.subpages:
            body = b"<html><title>404 Not Found</title></html>"
            return HttpResponse(
                404, self._base_headers(service, "text/html", len(body)), body
            )
        cache_key = (
            service.service_id, service.major_version, service.revision, path
        )
        body_text = self._page_cache.get(cache_key)
        if body_text is None:
            body_text = profile.render_subpage(
                path, service.major_version, service.revision
            )
            self._page_cache[cache_key] = body_text
        body = body_text.encode("utf-8")[:max_body]
        headers = self._base_headers(service, "text/html", len(body))
        return HttpResponse(200, headers, body)

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
