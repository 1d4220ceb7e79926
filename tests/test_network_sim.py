"""Tests for the simulated transport (the cloud's network face)."""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.core.transport import (
    ConnectionRefused,
    ConnectTimeout,
    HttpResponse,
    ProtocolError,
    TransportError,
)
from repro.cloudsim.population import WorkloadSpec
from repro.cloudsim.providers import EC2_SPEC
from repro.cloudsim.network import SimulatedTransport
from repro.cloudsim.services import PORT_PROFILES_EC2
from repro.cloudsim.simulation import CloudSimulation
from repro.cloudsim.software import EC2_CATALOG


@pytest.fixture(scope="module")
def sim() -> CloudSimulation:
    workload = WorkloadSpec(cloud="EC2", duration_days=30,
                            malicious_embedders=5)
    topology = EC2_SPEC.build(2048, seed=17)
    return CloudSimulation(
        topology, workload, EC2_CATALOG, PORT_PROFILES_EC2, seed=17
    )


@pytest.fixture()
def transport(sim) -> SimulatedTransport:
    return SimulatedTransport(sim)


def find_service(sim, predicate):
    for service in sim.live_services():
        if predicate(service) and sim.footprint(service.service_id):
            return service, sim.footprint(service.service_id)[0]
    pytest.skip("no matching service at this seed")


def probe(transport, ip, port, timeout=2.0):
    return asyncio.run(transport.probe(ip, port, timeout))


def get(transport, ip, path="/", scheme="http"):
    return asyncio.run(
        transport.get(ip, scheme, path, timeout=10.0, max_body=512 * 1024)
    )


class TestProbe:
    def test_idle_ip_unresponsive(self, sim, transport):
        assigned = set(sim.assignments())
        idle = next(a for a in sim.topology.space.addresses()
                    if a not in assigned)
        assert not probe(transport, idle, 80)

    def test_open_and_closed_ports(self, sim, transport):
        service, ip = find_service(
            sim, lambda s: s.port_profile.value == "80-only"
        )
        if sim.probe_latency(ip, sim.day) > 2.0 or sim.is_flaky(ip, sim.day):
            pytest.skip("transient host drawn")
        assert probe(transport, ip, 80)
        assert not probe(transport, ip, 443)

    def test_slow_host_misses_short_timeout(self, sim, transport):
        slow = None
        for ip in sim.assignments():
            if 2.0 < sim.probe_latency(ip, sim.day) <= 8.0:
                slow = ip
                break
        if slow is None:
            pytest.skip("no slow host at this seed")
        assert not probe(transport, slow, list(sim.host_state(slow).open_ports)[0], 2.0)
        port = next(iter(sim.host_state(slow).open_ports))
        assert probe(transport, slow, port, 8.0) or sim.is_flaky(slow, sim.day)

    def test_probe_counter(self, sim, transport):
        ip = next(iter(sim.assignments()))
        probe(transport, ip, 80)
        probe(transport, ip, 443)
        assert transport.probe_count == 2


class TestGet:
    def test_page_response(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.status_code == 200
            and not s.profile.robots_disallow
            and s.profile.content_type == "text/html"
            and s.availability >= 0.99 and 80 in s.port_profile.open_ports,
        )
        response = get(transport, ip)
        assert response.status_code == 200
        assert service.profile.title in response.body.decode()
        assert response.content_type == "text/html"

    def test_headers_carry_stack(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.stack is not None and s.stack.server
            and s.availability >= 0.99 and s.profile.status_code == 200
            and 80 in s.port_profile.open_ports,
        )
        response = get(transport, ip)
        assert response.header("Server") == service.stack.server

    def test_error_service_status(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.status_code == 404
            and s.availability >= 0.99 and 80 in s.port_profile.open_ports,
        )
        response = get(transport, ip)
        assert response.status_code == 404

    def test_robots_disallow(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.robots_disallow
            and s.availability >= 0.99 and 80 in s.port_profile.open_ports,
        )
        response = get(transport, ip, "/robots.txt")
        assert response.status_code == 200
        assert b"Disallow: /" in response.body

    def test_robots_absent_404(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and not s.profile.robots_disallow
            and s.availability >= 0.99 and 80 in s.port_profile.open_ports,
        )
        response = get(transport, ip, "/robots.txt")
        assert response.status_code == 404

    def test_idle_ip_refuses(self, sim, transport):
        assigned = set(sim.assignments())
        idle = next(a for a in sim.topology.space.addresses()
                    if a not in assigned)
        with pytest.raises(TransportError):
            get(transport, idle)

    def test_ssh_only_resets(self, sim, transport):
        service, ip = find_service(
            sim, lambda s: s.port_profile.value == "22-only"
        )
        with pytest.raises(TransportError):
            get(transport, ip)

    def test_page_cache_stable(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.status_code == 200
            and s.availability >= 0.99 and 80 in s.port_profile.open_ports,
        )
        assert get(transport, ip).body == get(transport, ip).body

    def test_malicious_links_on_page(self, sim, transport):
        found = None
        for service in sim.live_services():
            if (service.malicious is not None and service.malicious.on_page
                    and service.serves_web and service.availability >= 0.99
                    and 80 in service.port_profile.open_ports
                    and sim.footprint(service.service_id)):
                urls = service.malicious.active_urls(
                    service.day_in_life(sim.day)
                )
                if urls:
                    found = (service, urls)
                    break
        if found is None:
            pytest.skip("no active malicious embedder at this seed")
        service, urls = found
        ip = sim.footprint(service.service_id)[0]
        body = get(transport, ip).body.decode()
        assert urls[0] in body


class TestSubpages:
    def test_linked_and_unknown_paths_are_404(self, sim, transport):
        """Only ``/`` and ``/robots.txt`` are pages: a path the home
        page links to answers like any unknown one, through the single
        and the batch call alike."""
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.status_code == 200
            and "/about" in s.profile.subpages and s.availability >= 0.99
            and 80 in s.port_profile.open_ports,
        )
        paths = ("/about", "/definitely-not-a-page")
        batch = asyncio.run(transport.get_many(
            [(ip, "http", path) for path in paths],
            timeout=10.0, max_body=512 * 1024))
        for path, batched in zip(paths, batch):
            single = get(transport, ip, path)
            assert single.status_code == batched.status_code == 404
            assert single.body == batched.body

    def test_unknown_path_404(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.status_code == 200
            and s.availability >= 0.99 and 80 in s.port_profile.open_ports,
        )
        response = get(transport, ip, "/definitely-not-a-page")
        assert response.status_code == 404

    def test_home_links_to_subpages(self, sim, transport):
        service, ip = find_service(
            sim,
            lambda s: s.serves_web and s.profile.status_code == 200
            and s.profile.subpages and s.availability >= 0.99
            and s.profile.content_type == "text/html"
            and 80 in s.port_profile.open_ports,
        )
        body = get(transport, ip).body.decode()
        for path in service.profile.subpages:
            assert f'href="{path}"' in body


# ----------------------------------------------------------------------
# the day tables answer what the per-call accessors dictate


def expected_probe(sim, ip, port, timeout, attempts):
    """One probe as ``host_state`` and the per-(ip, day) rolls dictate;
    *attempts* counts the flaky draws per ``(ip, port)`` today."""
    state = sim.host_state(ip)
    if state is None or port not in state.open_ports:
        return False
    if sim.probe_latency(ip, sim.day) > timeout:
        return False
    if sim.is_flaky(ip, sim.day):
        attempt = attempts[(ip, port)]
        attempts[(ip, port)] += 1
        return not sim.flaky_drop(ip, sim.day, attempt)
    return True


def expected_banner(sim, ip, port, timeout):
    state = sim.host_state(ip)
    if state is None or port not in state.open_ports:
        return ConnectionRefused("connection refused")
    if port != 22 or not state.service.ssh_banner:
        return TransportError("no banner")
    if sim.probe_latency(ip, sim.day) > timeout:
        return ConnectTimeout("banner read timed out")
    return state.service.ssh_banner


def expected_get(sim, transport, ip, scheme, path, max_body):
    """The answer a GET must get, its page rendered afresh."""
    state = sim.host_state(ip)
    if state is None:
        return ConnectionRefused("connection refused")
    service = state.service
    port = 443 if scheme == "https" else 80
    if port not in state.open_ports:
        return ConnectionRefused(f"port {port} closed")
    if not service.serves_web:
        return ProtocolError("connection reset by peer")
    if not sim.service_web_up(service, ip, sim.day):
        return ConnectTimeout("connection timed out")
    profile = service.profile
    if path == "/robots.txt":
        if profile.robots_disallow:
            status, content_type = 200, "text/plain"
            body = b"User-agent: *\nDisallow: /\n"
        else:
            status, content_type, body = 404, "text/html", b"Not Found"
    else:
        status, content_type = profile.status_code, profile.content_type
        malicious = service.malicious
        if malicious is not None and malicious.on_page:
            urls = malicious.active_urls(state.day_in_life)
            if urls:
                profile = profile.with_malicious_links(urls)
        body = profile.render(service.major_version, service.revision)
        body = body.encode("utf-8")[:max_body]
    return HttpResponse(
        status, transport._base_headers(service, content_type, len(body)),
        body)


def same_answer(got, expected):
    if isinstance(expected, Exception):
        return type(got) is type(expected) and str(got) == str(expected)
    return got == expected


class TestDayTables:
    """Every answer read from the per-day host and response tables equals
    what ``host_state``, ``probe_latency``, ``is_flaky``/``flaky_drop``,
    ``service_web_up`` and a freshly rendered page dictate — for every
    target IP, idle ones included, on three seeded days, through both the
    single and the batch calls.  Slow and flaky hosts are made common so
    every branch is taken."""

    DAYS = (0, 4, 9)
    TIMEOUTS = (0.5, 2.0, 8.0)
    MAX_BODY = 512 * 1024

    @pytest.fixture(scope="class")
    def world(self):
        workload = WorkloadSpec(cloud="EC2", duration_days=30,
                                malicious_embedders=5)
        topology = EC2_SPEC.build(1024, seed=23)
        sim = CloudSimulation(
            topology, workload, EC2_CATALOG, PORT_PROFILES_EC2, seed=23,
            slow_host_rate=0.15, flaky_host_rate=0.15,
        )
        return sim, SimulatedTransport(sim), list(topology.space.addresses())

    def test_tables_equal_accessors(self, world):
        sim, transport, ips = world
        assert len(set(sim.assignments())) < len(ips)       # idle IPs too
        flaky_hosts = slow_hosts = 0
        for day in self.DAYS:
            sim.advance_to(day)
            asyncio.run(self.check_day(sim, transport, ips))
            occupied = sim.assignments()
            flaky_hosts += sum(sim.is_flaky(ip, day) for ip in occupied)
            slow_hosts += sum(sim.probe_latency(ip, day) > 2.0
                              for ip in occupied)
        assert flaky_hosts and slow_hosts

    async def check_day(self, sim, transport, ips):
        attempts = Counter()
        targets = [(ip, port) for ip in ips for port in (22, 80, 443)]
        for timeout in self.TIMEOUTS:
            batch = await transport.probe_many(targets, timeout)
            for (ip, port), got in zip(targets, batch):
                assert got == expected_probe(
                    sim, ip, port, timeout, attempts), (sim.day, ip, port)
            for ip, port in targets:
                assert await transport.probe(ip, port, timeout) == \
                    expected_probe(sim, ip, port, timeout, attempts)
        targets = [(ip, port) for ip in ips for port in (22, 80)]
        for timeout in (2.0, 8.0):
            batch = await transport.banner_many(targets, timeout)
            for (ip, port), got in zip(targets, batch):
                expected = expected_banner(sim, ip, port, timeout)
                assert same_answer(got, expected), (sim.day, ip, port)
                try:
                    got = await transport.banner(ip, port, timeout)
                except TransportError as exc:
                    got = exc
                assert same_answer(got, expected), (sim.day, ip, port)
        for path in ("/robots.txt", "/"):
            requests = [(ip, scheme, path) for ip in ips
                        for scheme in ("http", "https")]
            batch = await transport.get_many(
                requests, timeout=10.0, max_body=self.MAX_BODY)
            for (ip, scheme, _), got in zip(requests, batch):
                expected = expected_get(
                    sim, transport, ip, scheme, path, self.MAX_BODY)
                assert same_answer(got, expected), (sim.day, ip, path)
                try:
                    got = await transport.get(
                        ip, scheme, path, timeout=10.0,
                        max_body=self.MAX_BODY)
                except TransportError as exc:
                    got = exc
                assert same_answer(got, expected), (sim.day, ip, path)

    def test_tables_hold_one_day(self, world):
        sim, transport, ips = world
        targets = [(ip, 80) for ip in ips]
        for day in (sim.day + 1, sim.day + 2):
            sim.advance_to(day)
            asyncio.run(transport.probe_many(targets, 8.0))
            asyncio.run(transport.get_many(
                [(ip, "http", "/") for ip in ips],
                timeout=10.0, max_body=self.MAX_BODY))
            assert set(transport._hosts) == set(sim.assignments())
            assert {ip for ip, _ in transport._attempts} <= {
                ip for ip in sim.assignments() if sim.is_flaky(ip, day)}
            assert len(transport._responses) <= len(sim.live_services())


class TestSharedResponses:
    """One response object per service, path and body cap per day."""

    @pytest.fixture()
    def world(self):
        workload = WorkloadSpec(cloud="EC2", duration_days=30)
        topology = EC2_SPEC.build(2048, seed=29)
        sim = CloudSimulation(
            topology, workload, EC2_CATALOG, PORT_PROFILES_EC2, seed=29)
        return sim, SimulatedTransport(sim)

    @staticmethod
    def web_ips(sim, service):
        return [ip for ip in sim.footprint(service.service_id)
                if sim.probe_latency(ip, sim.day) <= 2.0
                and sim.service_web_up(service, ip, sim.day)]

    def test_ips_of_one_service_share_one_response(self, world):
        sim, transport = world
        service, ips = next(
            (s, self.web_ips(sim, s)) for s in sim.live_services()
            if s.serves_web and s.malicious is None
            and 80 in s.port_profile.open_ports
            and len(self.web_ips(sim, s)) >= 2)
        first, second = (get(transport, ip) for ip in ips[:2])
        assert first is second
        assert first.body.decode() == service.profile.render(
            service.major_version, service.revision)
        small = asyncio.run(transport.get(
            ips[0], "http", "/", timeout=10.0, max_body=64))
        assert small is not first
        assert small.body == first.body[:64]
        assert small.header("Content-Length") == str(len(small.body))

    def test_revision_bump_on_a_later_day_serves_the_new_body(self, world):
        sim, transport = world
        before = {
            s.service_id: get(transport, self.web_ips(sim, s)[0])
            for s in sim.live_services()
            if s.serves_web and s.profile.status_code == 200
            and s.profile.content_type == "text/html"
            and s.malicious is None and 80 in s.port_profile.open_ports
            and self.web_ips(sim, s)
        }
        sim.advance_to(sim.day + 1)
        service = next(s for s in sim.live_services()
                       if s.service_id in before and self.web_ips(sim, s))
        service.revision += 1            # what _evolve_content does
        after = get(transport, self.web_ips(sim, service)[0])
        assert after.body != before[service.service_id].body
        assert after.body.decode() == service.profile.render(
            service.major_version, service.revision)
        assert after.header("Date") != \
            before[service.service_id].header("Date")
