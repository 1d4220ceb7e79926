"""Tier-1 tests for the resilient query-serving layer.

Covers the serving contract end to end against a real (small) campaign
database: endpoint correctness, poison queries, admission shedding with
``Retry-After``, deadline budgets, circuit-breaker trip/recovery under
injected store faults, graceful drain, SIGTERM handling of the real
CLI process, and the serve-side slow-loris bound.  The heavy 10×
overload scenarios live in ``test_serve_chaos.py`` (``-m chaos``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.core.config import ServeConfig
from repro.core.store import open_store
from repro.serve import (
    AdmissionController,
    BreakerState,
    CircuitBreaker,
    PoolTimeout,
    ReadPool,
    RqsWorkload,
    ServeApp,
    TokenBucket,
    run_workload,
)
from repro.serve.loadgen import percentile


@pytest.fixture(scope="module")
def serve_db(tmp_path_factory):
    """A small finished campaign to serve."""
    path = str(tmp_path_factory.mktemp("serve") / "campaign.sqlite")
    assert main([
        "simulate", "--cloud", "ec2", "--ips", "256", "--days", "8",
        "--seed", "11", "--out", path,
    ]) == 0
    return path


@pytest.fixture(scope="module")
def responsive_ip(serve_db):
    """One IP with history in the database."""
    from repro.cloudsim.addressing import int_to_ip

    store = open_store(serve_db, readonly=True)
    ips = store.responsive_ips(1)
    store.close()
    assert ips
    return int_to_ip(min(ips))


async def http_get(port: int, target: str, *, timeout: float = 10.0):
    """Minimal raw HTTP client: returns (status, headers, parsed body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"GET {target} HTTP/1.1\r\nHost: t\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(1 << 22), timeout)
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    assert int(headers["content-length"]) == len(body), (
        "response framing must always be complete"
    )
    parsed = body.decode()
    if headers.get("content-type", "").startswith("application/json"):
        parsed = json.loads(parsed)
    return status, headers, parsed


class AppHarness:
    """Starts a ServeApp on an ephemeral port inside the test's loop."""

    def __init__(self, db, **overrides):
        # A zero drain deadline: teardown cancels whatever is still in
        # flight, unless a test sets its own deadline.
        defaults = dict(port=0, readers=2, drain_deadline=0.0)
        defaults.update(overrides)
        fault = defaults.pop("fault", None)
        self.app = ServeApp(db, ServeConfig(**defaults), fault=fault)

    async def __aenter__(self):
        await self.app.start()
        return self.app

    async def __aexit__(self, *exc):
        await self.app.drain()


class TestEndpoints:
    def test_rounds_and_detail(self, serve_db):
        async def scenario():
            async with AppHarness(serve_db) as app:
                status, _, body = await http_get(app.port, "/rounds")
                assert status == 200
                assert [r["round_id"] for r in body["rounds"]] == [1, 2, 3]
                assert body["in_progress"] == []
                status, _, detail = await http_get(app.port, "/rounds/2")
                assert status == 200
                assert detail["round_id"] == 2
                assert detail["responsive"] > 0
                assert detail["status"] == "complete"
                return True

        assert asyncio.run(scenario())

    def test_ip_history_matches_store(self, serve_db, responsive_ip):
        from repro.cloudsim.addressing import ip_to_int

        store = open_store(serve_db, readonly=True)
        expected = store.history(ip_to_int(responsive_ip))
        store.close()

        async def scenario():
            async with AppHarness(serve_db) as app:
                status, _, body = await http_get(
                    app.port, f"/ip/{responsive_ip}"
                )
                assert status == 200
                assert body["ip"] == responsive_ip
                observations = body["observations"]
                assert [o["round_id"] for o in observations] == [
                    r.round_id for r in expected
                ]
                assert observations[0]["status_code"] == (
                    expected[0].fetch.status_code
                )
                # Absence is data, not an error (§2: WhoWas records
                # that an IP served nothing).
                status, _, body = await http_get(app.port, "/ip/203.0.113.9")
                assert status == 200 and body["observations"] == []

        asyncio.run(scenario())

    def test_cluster_aggregates(self, serve_db):
        async def scenario():
            async with AppHarness(serve_db) as app:
                status, _, body = await http_get(
                    app.port, "/clusters/1?column=server&limit=3"
                )
                assert status == 200
                assert body["column"] == "server"
                assert 0 < len(body["groups"]) <= 3
                counts = [g["count"] for g in body["groups"]]
                assert counts == sorted(counts, reverse=True)

        asyncio.run(scenario())

    def test_health_and_ready(self, serve_db):
        async def scenario():
            async with AppHarness(serve_db) as app:
                status, _, body = await http_get(app.port, "/healthz")
                assert (status, body) == (200, "ok\n")
                status, _, body = await http_get(app.port, "/readyz")
                assert status == 200 and body["ready"] is True

        asyncio.run(scenario())

    def test_poison_queries_are_client_errors(self, serve_db):
        """Garbage must come back as 400/404/405 — never 500, never a
        breaker trip."""
        poison = [
            ("/ip/not-an-ip", 400),
            ("/ip/999.1.2.3", 400),
            ("/rounds/xyzzy", 400),
            ("/rounds/-3", 404),  # joined path normalises; unmatched
            ("/rounds/99999", 404),
            ("/clusters/1?column=body;DROP", 400),
            ("/clusters/1?column=server&limit=0", 400),
            ("/clusters/1?column=server&limit=99999", 400),
            ("/clusters/99999", 404),
            ("/totally/unknown/path", 404),
            ("/rounds?deadline_ms=potato", 400),
        ]

        async def scenario():
            async with AppHarness(serve_db) as app:
                for target, expected in poison:
                    status, _, _ = await http_get(app.port, target)
                    assert status in (expected, 400, 404), (
                        f"{target} -> {status}"
                    )
                    assert status < 500
                for breaker in app.breakers.values():
                    assert breaker.state == BreakerState.CLOSED
                # And the server still serves real queries.
                status, _, _ = await http_get(app.port, "/rounds")
                assert status == 200

        asyncio.run(scenario())

    def test_post_is_rejected(self, serve_db):
        async def scenario():
            async with AppHarness(serve_db) as app:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port
                )
                writer.write(b"POST /rounds HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                raw = await reader.read(4096)
                writer.close()
                assert raw.startswith(b"HTTP/1.1 405 ")

        asyncio.run(scenario())


class TestAdmission:
    def test_shed_returns_429_with_retry_after(self, serve_db):
        async def scenario():
            # Tiny bucket, no queue: the second simultaneous burst
            # request must shed.
            async with AppHarness(
                serve_db, rate_per_second=0.5, burst=1.0, accept_queue=1,
                default_deadline=0.2,
            ) as app:
                results = await asyncio.gather(*[
                    http_get(app.port, "/rounds") for _ in range(6)
                ])
                statuses = sorted(s for s, _, _ in results)
                assert statuses[0] == 200
                assert 429 in statuses
                for status, headers, body in results:
                    if status == 429:
                        hint = int(headers["retry-after"])
                        assert hint >= 1
                        assert body["retry_after"] == hint

        asyncio.run(scenario())

    def test_waiting_for_a_token_succeeds_inside_deadline(self, serve_db):
        async def scenario():
            async with AppHarness(
                serve_db, rate_per_second=20.0, burst=1.0, accept_queue=8,
                default_deadline=2.0,
            ) as app:
                results = await asyncio.gather(*[
                    http_get(app.port, "/healthz") for _ in range(3)
                ] + [
                    http_get(app.port, "/rounds") for _ in range(4)
                ])
                # health is never admission-controlled; the data reads
                # queue briefly for tokens and all make it.
                assert all(status == 200 for status, _, _ in results)

        asyncio.run(scenario())


class TestDeadlines:
    def test_slow_store_read_becomes_503(self, serve_db):
        def slow_fault(endpoint):
            time.sleep(0.6)

        async def scenario():
            async with AppHarness(
                serve_db, fault=slow_fault, default_deadline=0.15,
            ) as app:
                began = time.monotonic()
                status, headers, _ = await http_get(app.port, "/rounds")
                elapsed = time.monotonic() - began
                assert status == 503
                assert elapsed < 0.5, "must shed at the budget, not block"
                assert "retry-after" in headers

        asyncio.run(scenario())

    def test_deadline_ms_parameter_is_honoured(self, serve_db):
        def slow_fault(endpoint):
            time.sleep(0.25)

        async def scenario():
            async with AppHarness(
                serve_db, fault=slow_fault, default_deadline=0.1,
            ) as app:
                status, _, _ = await http_get(app.port, "/rounds")
                assert status == 503  # default budget too small
                status, _, _ = await http_get(
                    app.port, "/rounds?deadline_ms=2000"
                )
                assert status == 200  # explicit budget is enough

        asyncio.run(scenario())


class TestCircuitBreaker:
    def test_unit_state_machine(self):
        now = [0.0]
        breaker = CircuitBreaker(3, cooldown=5.0, clock=lambda: now[0])
        assert breaker.state == BreakerState.CLOSED
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()
        now[0] += 5.1
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow()        # the single probe
        assert not breaker.allow()    # second concurrent probe refused
        breaker.record_failure()      # probe failed -> reopen
        assert breaker.state == BreakerState.OPEN
        now[0] += 5.1
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED

    def test_trips_on_store_faults_then_recovers(self, serve_db):
        """Injected store faults open the breaker (fail-fast 503s);
        once the fault clears and the cooldown passes, a probe request
        re-closes it and service resumes."""
        sick = {"on": True}

        def fault(endpoint):
            if sick["on"] and endpoint == "rounds":
                raise RuntimeError("injected store sickness")

        async def scenario():
            async with AppHarness(
                serve_db, fault=fault, breaker_threshold=3,
                breaker_cooldown=0.3, rate_per_second=1000.0, burst=100.0,
            ) as app:
                for _ in range(3):
                    status, _, _ = await http_get(app.port, "/rounds")
                    assert status == 503
                assert app.breakers["rounds"].state == BreakerState.OPEN
                # While open: instant 503, the fault hook is not even
                # reached (fail fast).
                began = time.monotonic()
                status, _, body = await http_get(app.port, "/rounds")
                assert status == 503 and body["error"] == "circuit open"
                assert time.monotonic() - began < 0.2
                # Other endpoints keep their own breakers.
                assert app.breakers["ip"].state == BreakerState.CLOSED
                status, _, _ = await http_get(app.port, "/ip/10.0.0.1")
                assert status == 200
                # Heal the store, wait out the cooldown: recovery.
                sick["on"] = False
                await asyncio.sleep(0.35)
                status, _, _ = await http_get(app.port, "/rounds")
                assert status == 200
                assert app.breakers["rounds"].state == BreakerState.CLOSED

        asyncio.run(scenario())

    def test_readyz_degrades_when_all_breakers_open(self, serve_db):
        async def scenario():
            async with AppHarness(serve_db) as app:
                for breaker in app.breakers.values():
                    breaker._state = BreakerState.OPEN
                    breaker._opened_at = time.monotonic() + 3600
                status, _, body = await http_get(app.port, "/readyz")
                assert status == 503
                assert body["reason"] == "all breakers open"

        asyncio.run(scenario())


class TestDrain:
    def test_in_flight_completes_new_refused(self, serve_db):
        release = {"gate": None}

        def slow_fault(endpoint):
            time.sleep(0.4)

        async def scenario():
            async with AppHarness(
                serve_db, fault=slow_fault, default_deadline=5.0,
                drain_deadline=5.0,
            ) as app:
                in_flight = asyncio.ensure_future(
                    http_get(app.port, "/rounds")
                )
                await asyncio.sleep(0.1)  # request is now inside fault
                port = app.port
                drain = asyncio.ensure_future(app.drain())
                await asyncio.sleep(0.05)
                # The listener socket is closed during drain; a client
                # either fails to connect or gets a drain 503.
                try:
                    status, _, body = await http_get(port, "/rounds")
                    refused = status == 503 and body["error"] == "draining"
                except (OSError, asyncio.IncompleteReadError):
                    refused = True
                assert refused
                status, _, body = await in_flight
                assert status == 200 and body["rounds"]
                assert await drain is True

        asyncio.run(scenario())

    def test_drain_past_deadline_force_closes(self, serve_db):
        def wedged_fault(endpoint):
            time.sleep(3.0)  # far beyond the drain deadline

        async def scenario():
            async with AppHarness(
                serve_db, fault=wedged_fault, default_deadline=10.0,
                drain_deadline=0.2,
            ) as app:
                wedged = asyncio.ensure_future(
                    http_get(app.port, "/rounds")
                )
                await asyncio.sleep(0.1)
                began = time.monotonic()
                clean = await app.drain()
                assert clean is False
                assert time.monotonic() - began < 1.5
                with pytest.raises(Exception):
                    await wedged  # connection was force-closed

        asyncio.run(scenario())

    def test_sigterm_drains_real_process(self, serve_db, tmp_path):
        """`python -m repro serve` exits 0 on SIGTERM after a drain."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", serve_db,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "serving" in line and "http://" in line, line
            port = int(line.rsplit(":", 1)[1])

            async def query():
                return await http_get(port, "/rounds")

            status, _, _ = asyncio.run(query())
            assert status == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestSlowLoris:
    def test_stalled_request_head_gets_408(self, serve_db):
        async def scenario():
            async with AppHarness(serve_db, header_timeout=0.3) as app:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port
                )
                writer.write(b"GET /rou")  # never finish the head
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(4096), 5.0)
                writer.close()
                assert raw.startswith(b"HTTP/1.1 408 ")
                # Server is still healthy afterwards.
                status, _, _ = await http_get(app.port, "/healthz")
                assert status == 200

        asyncio.run(scenario())

    def test_oversized_head_gets_431(self, serve_db):
        async def scenario():
            async with AppHarness(
                serve_db, max_request_bytes=512,
            ) as app:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", app.port
                )
                writer.write(
                    b"GET /rounds HTTP/1.1\r\nX-Bloat: " + b"a" * 4096
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(4096), 5.0)
                writer.close()
                assert raw.startswith(b"HTTP/1.1 431 ")

        asyncio.run(scenario())


class TestResiliencePrimitives:
    def test_token_bucket_refills_at_rate(self):
        now = [0.0]
        bucket = TokenBucket(10.0, 2.0, clock=lambda: now[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.next_token_in() == pytest.approx(0.1)
        now[0] += 0.1
        assert bucket.try_acquire()

    def test_admission_sheds_beyond_queue_limit(self):
        async def scenario():
            bucket = TokenBucket(5.0, 1.0)
            admission = AdmissionController(
                bucket, queue_limit=2, retry_after_base=0.5,
                retry_after_max=8.0,
            )
            deadline = time.monotonic() + 2.0
            outcomes = await asyncio.gather(*[
                admission.admit(deadline) for _ in range(8)
            ])
            admitted = [o for o in outcomes if o.admitted]
            shed = [o for o in outcomes if not o.admitted]
            assert len(admitted) >= 1
            assert len(shed) >= 5  # 1 token + 2 queue slots at most pass
            assert all(o.retry_after >= 1 for o in shed)

        asyncio.run(scenario())

    def test_pool_bounds_concurrency(self, serve_db):
        async def scenario():
            pool = ReadPool(
                lambda: open_store(serve_db, readonly=True), 2
            )
            await pool.start()
            first = await pool.acquire(1.0)
            second = await pool.acquire(1.0)
            with pytest.raises(PoolTimeout):
                await pool.acquire(0.05)
            pool.release(first)
            await asyncio.sleep(0)  # let call_soon_threadsafe land
            third = await pool.acquire(1.0)
            assert third is first
            pool.release(second)
            pool.release(third)
            pool.close()

        asyncio.run(scenario())


class TestMiniOverload:
    def test_overload_sheds_cleanly(self, serve_db):
        """A fast, deterministic slice of the chaos scenario for tier-1:
        offered load well above the admission rate must produce only
        complete 200/429/503 responses — shedding, never collapsing."""
        async def scenario():
            async with AppHarness(
                serve_db, rate_per_second=30.0, burst=5.0, accept_queue=4,
                default_deadline=0.5,
            ) as app:
                workload = RqsWorkload(
                    mean_users=6, rate_per_user=25.0, duration=1.0,
                    paths={"/rounds": 1.0, "/rounds/1": 1.0,
                           "/ip/10.0.0.1": 2.0},
                    seed=1234,
                )
                report = await run_workload(
                    "127.0.0.1", app.port, workload, timeout=5.0
                )
                assert report.sent > 60  # genuinely above capacity
                assert report.malformed == 0
                assert report.connect_errors == 0
                assert set(report.statuses) <= {200, 429, 503}
                assert report.count(200) > 0
                assert report.count(429) > 0, "overload must shed"
                # Admitted requests stay within their deadline budget
                # plus scheduling slack.
                assert report.percentile(99, status=200) < 1.5

        asyncio.run(scenario())

    def test_workload_schedule_is_deterministic(self):
        workload = RqsWorkload(
            mean_users=4, rate_per_user=10.0, duration=2.0,
            paths={"/a": 1.0, "/b": 1.0}, seed=77,
        )
        again = RqsWorkload(
            mean_users=4, rate_per_user=10.0, duration=2.0,
            paths={"/a": 1.0, "/b": 1.0}, seed=77,
        )
        assert workload.schedule() == again.schedule()
        other = RqsWorkload(
            mean_users=4, rate_per_user=10.0, duration=2.0,
            paths={"/a": 1.0, "/b": 1.0}, seed=78,
        )
        assert workload.schedule() != other.schedule()

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([], 99) == 0.0
