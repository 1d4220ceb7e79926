"""Tests for the probing scanner (§4 semantics)."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.config import ScanConfig
from repro.core.records import ProbeStatus
from repro.core.scanner import RateLimiter, Scanner
from repro.core.transport import ConnectionRefused, ConnectTimeout

from _fakes import FakeTransport


def fast_config(**overrides) -> ScanConfig:
    defaults = dict(probes_per_second=1e9, probe_timeout=2.0)
    defaults.update(overrides)
    return ScanConfig(**defaults)


class TestScanIp:
    def test_web_host(self):
        transport = FakeTransport()
        transport.add_host(1, {80})
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(1))
        assert outcome.status is ProbeStatus.RESPONSIVE
        assert outcome.open_ports == {80}

    def test_ssh_fallback_only_when_web_closed(self):
        """§4: the SSH probe is sent only if both web probes fail."""
        transport = FakeTransport()
        transport.add_host(1, {22})
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(1))
        assert outcome.open_ports == {22}
        assert [port for _, port in transport.probe_calls] == [80, 443, 22]

    def test_no_ssh_probe_when_web_open(self):
        transport = FakeTransport()
        transport.add_host(1, {80, 443})
        scanner = Scanner(transport, fast_config())
        asyncio.run(scanner.scan_ip(1))
        assert [port for _, port in transport.probe_calls] == [80, 443]

    def test_unresponsive(self):
        transport = FakeTransport()
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(5))
        assert outcome.status is ProbeStatus.UNRESPONSIVE
        assert not outcome.open_ports

    def test_at_most_three_probes_per_ip(self):
        """Ethics invariant (§7): at most 3 probes per IP per round."""
        transport = FakeTransport()
        scanner = Scanner(transport, fast_config())
        asyncio.run(scanner.scan_ip(9))
        assert len(transport.probe_calls) == 3

    def test_blacklisted_ip_never_probed(self):
        transport = FakeTransport()
        transport.add_host(7, {80})
        scanner = Scanner(transport, fast_config(), blacklist=[7])
        outcome = asyncio.run(scanner.scan_ip(7))
        assert outcome.status is ProbeStatus.SKIPPED
        assert transport.probe_calls == []

    def test_no_retries_by_default(self):
        """§4: failed probes are not retried."""
        transport = FakeTransport()
        transport.add_host(3, {80})
        transport.fail_first[(3, 80)] = 1
        transport.fail_first[(3, 443)] = 1
        transport.fail_first[(3, 22)] = 1
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(3))
        assert outcome.status is ProbeStatus.UNRESPONSIVE
        assert len(transport.probe_calls) == 3

    def test_retries_recover_flaky_hosts(self):
        transport = FakeTransport()
        transport.add_host(3, {80})
        transport.fail_first[(3, 80)] = 1
        scanner = Scanner(transport, fast_config(retries=1))
        outcome = asyncio.run(scanner.scan_ip(3))
        assert outcome.status is ProbeStatus.RESPONSIVE


class TestProbeErrorClass:
    def test_classified_failure_recorded_on_outcome(self):
        transport = FakeTransport()
        transport.probe_raises[(4, 80)] = ConnectTimeout("injected")
        transport.probe_raises[(4, 443)] = ConnectTimeout("injected")
        transport.probe_raises[(4, 22)] = ConnectionRefused("injected")
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(4))
        assert outcome.status is ProbeStatus.UNRESPONSIVE
        # The last classified error wins (the SSH fallback's refusal).
        assert outcome.error_class == "connection-refused"
        assert scanner.probe_errors == 3

    def test_raising_probe_counts_as_failed_not_crash(self):
        """A transport that raises typed errors must not break the scan
        or the probe budget."""
        transport = FakeTransport()
        transport.probe_raises[(4, 80)] = ConnectTimeout("injected")
        transport.add_host(4, {443})
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(4))
        assert outcome.status is ProbeStatus.RESPONSIVE
        assert outcome.open_ports == {443}
        # Responsive IPs don't carry a probe error class.
        assert outcome.error_class is None
        assert len(transport.probe_calls) == 2

    def test_silent_failures_have_no_error_class(self):
        transport = FakeTransport()
        scanner = Scanner(transport, fast_config())
        outcome = asyncio.run(scanner.scan_ip(9))
        assert outcome.status is ProbeStatus.UNRESPONSIVE
        assert outcome.error_class is None
        assert scanner.probe_errors == 0


class TestScanMany:
    def test_order_preserved(self):
        transport = FakeTransport()
        transport.add_host(2, {80})
        transport.add_host(4, {22})
        scanner = Scanner(transport, fast_config())
        outcomes = scanner.scan_sync([4, 2, 6])
        assert [o.ip for o in outcomes] == [4, 2, 6]
        assert outcomes[0].open_ports == {22}
        assert outcomes[1].open_ports == {80}
        assert outcomes[2].status is ProbeStatus.UNRESPONSIVE

    def test_probe_counter(self):
        transport = FakeTransport()
        transport.add_host(1, {80})
        scanner = Scanner(transport, fast_config())
        scanner.scan_sync([1, 2])
        # ip 1: 80 (open) + 443 (closed) = 2; ip 2: 3 probes.
        assert scanner.probes_sent == 5


class TestRateLimiter:
    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0)

    def test_limits_rate(self):
        async def run():
            limiter = RateLimiter(200.0, burst=1)
            start = time.monotonic()
            for _ in range(21):
                await limiter.acquire()
            return time.monotonic() - start

        elapsed = asyncio.run(run())
        # 20 extra tokens at 200/s need ~0.1 s.
        assert elapsed >= 0.08

    def test_unlimited_rate_is_fast(self):
        async def run():
            limiter = RateLimiter(1e9)
            start = time.monotonic()
            for _ in range(1000):
                await limiter.acquire()
            return time.monotonic() - start

        assert asyncio.run(run()) < 0.5

    def test_burst_capacity_spent_immediately(self):
        """A full bucket allows exactly `burst` acquires without
        sleeping; the next one must wait a full token period."""
        async def run():
            limiter = RateLimiter(50.0, burst=5)
            loop = asyncio.get_running_loop()
            start = loop.time()
            for _ in range(5):
                await limiter.acquire()
            burst_elapsed = loop.time() - start
            await limiter.acquire()           # 6th: needs 1/50 s refill
            total_elapsed = loop.time() - start
            return burst_elapsed, total_elapsed

        burst_elapsed, total_elapsed = asyncio.run(run())
        assert burst_elapsed < 0.01
        assert total_elapsed >= 0.015

    def test_tokens_refill_over_loop_time(self):
        """Idle time earns tokens back (up to capacity): after draining
        the bucket, waiting 2 token-periods buys 2 immediate acquires."""
        async def run():
            limiter = RateLimiter(100.0, burst=2)
            loop = asyncio.get_running_loop()
            await limiter.acquire()
            await limiter.acquire()           # bucket empty
            await asyncio.sleep(0.025)        # refills ~2.5 → capped at 2
            start = loop.time()
            await limiter.acquire()
            await limiter.acquire()
            fast = loop.time() - start
            start = loop.time()
            await limiter.acquire()           # 3rd: bucket empty again
            slow = loop.time() - start
            return fast, slow

        fast, slow = asyncio.run(run())
        assert fast < 0.01
        assert slow >= 0.005

    def test_refill_capped_at_capacity(self):
        """A long idle period must not bank unbounded burst credit."""
        async def run():
            limiter = RateLimiter(100.0, burst=2)
            await limiter.acquire()
            await asyncio.sleep(0.1)          # would earn 10 tokens uncapped
            loop = asyncio.get_running_loop()
            start = loop.time()
            for _ in range(4):                # capacity 2 → 2 fast + 2 slow
                await limiter.acquire()
            return loop.time() - start

        # 2 tokens free, 2 at 100/s → ≥ ~0.02 s minus scheduling slop.
        assert asyncio.run(run()) >= 0.015

    def test_rate_bounded_under_concurrent_acquire(self):
        """The §7 politeness invariant: N concurrent acquirers cannot
        push the observed probe rate above the configured pps."""
        rate, burst, tasks = 400.0, 1.0, 41

        async def worker(limiter, stamps):
            await limiter.acquire()
            stamps.append(asyncio.get_running_loop().time())

        async def run():
            limiter = RateLimiter(rate, burst=burst)
            stamps: list[float] = []
            await asyncio.gather(
                *(worker(limiter, stamps) for _ in range(tasks))
            )
            return stamps

        stamps = asyncio.run(run())
        assert len(stamps) == tasks
        elapsed = max(stamps) - min(stamps)
        # 40 post-burst tokens at 400/s need ≥ 0.1 s (80% slack for
        # scheduling jitter biasing the measurement *down* is impossible:
        # sleeps only ever overshoot, so this bound is safe).
        assert elapsed >= (tasks - burst) / rate * 0.95
        # And in any sliding 25 ms window, at most rate*0.025 + burst
        # acquisitions happened.
        window = 0.025
        ordered = sorted(stamps)
        for i, start in enumerate(ordered):
            in_window = sum(1 for t in ordered[i:] if t - start <= window)
            assert in_window <= rate * window + burst + 1


class AlwaysLockedLimiter(RateLimiter):
    """The limiter as it was before the uncontended fast path: every
    acquire enters the lock.  The oracle for the script below."""

    async def acquire(self) -> None:
        async with self._lock:
            loop = asyncio.get_running_loop()
            now = loop.time()
            if self._updated is None:
                self._updated = now
            self._tokens = min(
                self._capacity,
                self._tokens + (now - self._updated) * self._rate,
            )
            self._updated = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            deficit = 1.0 - self._tokens
            self._tokens = 0.0
            await asyncio.sleep(deficit / self._rate)
            self._updated = loop.time()


def run_limiter_script(limiter_class, monkeypatch):
    """Drive one limiter on a clock that moves only when the limiter
    sleeps or the script idles: a contended burst (8 workers x 2
    acquires on a 3-token bucket), an idle refill, a sequential tail.
    Returns every grant in order, every sleep asked for, and the
    bucket's final state."""
    now = 0.0
    sleeps: list[float] = []
    grants: list[tuple[str, float]] = []
    real_sleep = asyncio.sleep

    async def fake_sleep(delay):
        nonlocal now
        sleeps.append(delay)
        now += delay
        await real_sleep(0)

    async def worker(limiter, name):
        for _ in range(2):
            await limiter.acquire()
            grants.append((name, now))

    async def script():
        nonlocal now
        # This run's loop is thrown away with it; no need to restore.
        asyncio.get_running_loop().time = lambda: now
        limiter = limiter_class(10.0, burst=3)
        await asyncio.gather(*(worker(limiter, f"w{n}") for n in range(8)))
        now += 0.25                       # idle: earns 2.5 tokens
        for _ in range(5):
            await limiter.acquire()
            grants.append(("tail", now))
        return limiter._tokens, limiter._updated

    with monkeypatch.context() as patch:
        patch.setattr(asyncio, "sleep", fake_sleep)
        state = asyncio.run(script())
    return grants, sleeps, state


class TestRateLimiterFastPath:
    def test_same_grants_sleeps_and_tokens_as_always_locking(
            self, monkeypatch):
        fast = run_limiter_script(RateLimiter, monkeypatch)
        locked = run_limiter_script(AlwaysLockedLimiter, monkeypatch)
        assert fast == locked
        grants, sleeps, _ = fast
        assert len(grants) == 21
        # 3 burst tokens free, 13 waited for, 2 back from the idle
        # period, 3 more waited for.
        assert len(sleeps) == 16
        # Waiters were served in arrival order.
        assert [name for name, _ in grants[:16]] == [
            "w0", "w0", "w1", "w1", "w2", "w3", "w4", "w5", "w6", "w7",
            "w2", "w3", "w4", "w5", "w6", "w7",
        ]

    def test_uncontended_acquire_does_not_enter_the_lock(self):
        class NoEntry:
            async def __aenter__(self):
                raise AssertionError("lock entered with a token in hand")

            async def __aexit__(self, *exc):
                return False

        async def run():
            limiter = RateLimiter(1e9)
            limiter._lock = NoEntry()
            for _ in range(1000):
                await limiter.acquire()

        asyncio.run(run())
