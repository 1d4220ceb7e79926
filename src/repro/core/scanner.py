"""The WhoWas scanner: lightweight TCP probing of cloud IP ranges (§4).

For every target IP the scanner sends a probe to port 80 first, then to
443; only if both fail does it probe port 22 — identifying live instances
that are not public web servers.  Probes time out (2 s default) and are
never retried, and a global token-bucket rate limiter caps the probe
rate (250 pps default), keeping the measurement polite (§7).

The scanner accepts a do-not-scan blacklist so operators can exclude
tenants who opted out.
"""

from __future__ import annotations

import asyncio
import time
from typing import Iterable, Sequence

from .config import ScanConfig
from .records import ProbeOutcome, ProbeStatus
from .transport import Transport, TransportError

__all__ = ["RateLimiter", "SubnetCircuitBreaker", "Scanner"]


class SubnetCircuitBreaker:
    """Per-/24-subnet breaker guarding the probe budget.

    Pathological subnets (null-routed, fully firewalled) make every
    probe burn the full timeout.  The breaker counts *consecutive*
    per-IP classified probe failures within each /24; once a subnet
    accumulates ``threshold`` of them, the rest of its addresses are
    skipped for the round with :attr:`ProbeStatus.CIRCUIT_OPEN`.  Any
    clean outcome (responsive, or unresponsive without a classified
    error) resets the subnet's streak.  ``threshold <= 0`` disables
    the breaker entirely; the platform resets it every round.
    """

    def __init__(self, threshold: int = 0):
        self.threshold = threshold
        self._streak: dict[int, int] = {}
        self._open: set[int] = set()

    @staticmethod
    def subnet(ip: int) -> int:
        return ip >> 8

    def is_open(self, ip: int) -> bool:
        return self.threshold > 0 and (ip >> 8) in self._open

    def record(self, ip: int, errored: bool) -> None:
        """Feed one finished probe outcome into the breaker."""
        if self.threshold <= 0:
            return
        net = ip >> 8
        if not errored:
            self._streak[net] = 0
            return
        streak = self._streak.get(net, 0) + 1
        self._streak[net] = streak
        if streak >= self.threshold:
            self._open.add(net)

    def reset(self) -> None:
        """Close every breaker (called at the start of each round)."""
        self._streak.clear()
        self._open.clear()

    @property
    def open_subnets(self) -> frozenset[int]:
        return frozenset(self._open)


class RateLimiter:
    """Token-bucket limiter shared by all in-flight probes.

    Runs on the event loop's clock; at simulator speeds (rate set very
    high) ``acquire`` returns without ever sleeping.
    """

    def __init__(self, rate_per_second: float, burst: float | None = None):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self._rate = rate_per_second
        self._capacity = burst if burst is not None else max(1.0, rate_per_second / 10)
        self._tokens = self._capacity
        self._updated: float | None = None
        self._lock = asyncio.Lock()
        #: Acquirers inside the locked path, holding the lock or queued.
        self._queued = 0

    def _take(self, now: float) -> bool:
        """Refill to *now* and take one token if the bucket holds one."""
        if self._updated is None:
            self._updated = now
        self._tokens = min(
            self._capacity, self._tokens + (now - self._updated) * self._rate
        )
        self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    async def acquire(self) -> None:
        """Block until one probe token is available."""
        loop = asyncio.get_running_loop()
        # Nobody ahead and a token in the bucket: no lock to enter.  Any
        # acquirer that has to wait goes through the lock, which is FIFO.
        if not self._queued and self._take(loop.time()):
            return
        self._queued += 1
        try:
            async with self._lock:
                if self._take(loop.time()):
                    return
                deficit = 1.0 - self._tokens
                self._tokens = 0.0
                await asyncio.sleep(deficit / self._rate)
                self._updated = loop.time()
        finally:
            self._queued -= 1


class Scanner:
    """Probes a set of IPs and reports which ports are open on each."""

    def __init__(
        self,
        transport: Transport,
        config: ScanConfig | None = None,
        *,
        blacklist: Iterable[int] = (),
    ):
        self.transport = transport
        self.config = config or ScanConfig()
        self.blacklist = frozenset(blacklist)
        self._limiter = RateLimiter(self.config.probes_per_second)
        #: Per-/24 circuit breaker (disabled unless
        #: :attr:`ScanConfig.subnet_error_threshold` is set).
        self.breaker = SubnetCircuitBreaker(self.config.subnet_error_threshold)
        #: Total probes sent across the scanner's lifetime (ethics audit).
        self.probes_sent = 0
        #: Probes that failed with a *classified* transport error across
        #: the scanner's lifetime (feeds the platform's error budget).
        self.probe_errors = 0
        #: Targets skipped because their subnet's breaker was open.
        self.circuit_open_skips = 0
        #: Wall-clock seconds spent inside :meth:`scan` calls (feeds
        #: the pipeline's per-stage throughput telemetry).
        self.scan_busy_seconds = 0.0

    async def scan_ip(self, ip: int) -> ProbeOutcome:
        """Probe one IP: web ports first, SSH fallback (§4).

        At most ``len(web_ports) + len(fallback_ports)`` probes are sent;
        the SSH probe is skipped as soon as any web port answers.  A
        probe that raises a classified :class:`TransportError` counts as
        a failed probe; the last error class seen is recorded on the
        outcome.
        """
        if ip in self.blacklist:
            return ProbeOutcome(ip=ip, status=ProbeStatus.SKIPPED)
        if self.breaker.is_open(ip):
            self.circuit_open_skips += 1
            return ProbeOutcome(ip=ip, status=ProbeStatus.CIRCUIT_OPEN)
        open_ports: set[int] = set()
        error_class: str | None = None
        for port in self.config.web_ports:
            opened, error_class = await self._probe_once(ip, port, error_class)
            if opened:
                open_ports.add(port)
        if not open_ports:
            for port in self.config.fallback_ports:
                opened, error_class = await self._probe_once(
                    ip, port, error_class
                )
                if opened:
                    open_ports.add(port)
        status = ProbeStatus.RESPONSIVE if open_ports else ProbeStatus.UNRESPONSIVE
        self.breaker.record(ip, not open_ports and error_class is not None)
        return ProbeOutcome(
            ip=ip,
            status=status,
            open_ports=frozenset(open_ports),
            error_class=None if open_ports else error_class,
        )

    async def scan(self, ips: Sequence[int]) -> list[ProbeOutcome]:
        """Probe many IPs concurrently under the global rate limit.

        Results are returned in input order.  Each IP is treated exactly
        once per call — the platform invokes one call per round, matching
        the "at most three probes per IP per day" budget.
        """
        semaphore = asyncio.Semaphore(self.config.concurrency)

        async def bounded(ip: int) -> ProbeOutcome:
            async with semaphore:
                return await self.scan_ip(ip)

        started = time.perf_counter()
        try:
            return list(await asyncio.gather(*(bounded(ip) for ip in ips)))
        finally:
            self.scan_busy_seconds += time.perf_counter() - started

    def scan_sync(self, ips: Sequence[int]) -> list[ProbeOutcome]:
        """Convenience wrapper running :meth:`scan` on a fresh event loop."""
        return asyncio.run(self.scan(ips))

    def stats_snapshot(self) -> dict[str, int]:
        """Lifetime counters, snapshotted — the platform diffs two
        snapshots to attribute errors/operations to one shard."""
        return {
            "probes_sent": self.probes_sent,
            "probe_errors": self.probe_errors,
            "circuit_open_skips": self.circuit_open_skips,
        }

    async def _probe_once(
        self, ip: int, port: int, error_class: str | None = None
    ) -> tuple[bool, str | None]:
        """One probe (plus configured retries); returns (opened, last
        classified error seen — *error_class* carried through unchanged
        when this probe fails without raising)."""
        opened, kind = await self._guarded_probe(ip, port)
        error_class = kind or error_class
        for _ in range(self.config.retries):
            if opened:
                break
            opened, kind = await self._guarded_probe(ip, port)
            error_class = kind or error_class
        return opened, error_class

    async def _guarded_probe(self, ip: int, port: int) -> tuple[bool, str | None]:
        """Send one rate-limited probe; a classified failure comes back
        as (False, taxonomy label)."""
        await self._limiter.acquire()
        self.probes_sent += 1
        try:
            return (
                await self.transport.probe(ip, port, self.config.probe_timeout),
                None,
            )
        except TransportError as exc:
            self.probe_errors += 1
            return False, exc.kind
