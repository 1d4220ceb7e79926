"""The WhoWas scanner: lightweight TCP probing of cloud IP ranges (§4).

For every target IP the scanner probes port 80 and port 443; only if
both fail does it probe port 22 — identifying live instances that are
not public web servers.  Probes time out (2 s default) and are never
retried, and a global token-bucket rate limiter caps the probe rate
(250 pps default), keeping the measurement polite (§7).

A shard is scanned as one queue of ``(target, port, attempt)`` jobs.
Every target's web-port jobs are queued up front; a failed job is
queued again while ``attempt < retries``; a target whose web jobs have
all finished with nothing open queues its fallback job.  The queue
drains one of two ways: a transport with ``probe_many``
(:class:`~repro.core.transport.BatchProbe`) gets everything queued in
one call after one rate-limiter grant for all of it, pass after pass;
any other transport is driven by at most ``ScanConfig.concurrency``
workers, one token and one ``probe`` per job.  Each target's outcome is
built once, after its last job.  Neither the drain nor the order in
which probes complete changes a result: for a transport whose answer
depends only on each ``(ip, port)``'s own history, the outcomes are
those of probing the targets one at a time, in input order.

The scanner accepts a do-not-scan blacklist so operators can exclude
tenants who opted out.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Iterable, Sequence

from .config import ScanConfig
from .records import ProbeOutcome, ProbeStatus
from .transport import Transport, TransportError

__all__ = ["RateLimiter", "Scanner"]

#: Ports probed, in order: 80 then 443, and 22 only if both failed.
WEB_PORTS = (80, 443)
FALLBACK_PORTS = (22,)

#: One probe to send: (index of the target in the scanned list, port,
#: attempt number — 0 for the first probe of that port).
Job = tuple[int, int, int]
#: What one probe came back with: open or not, or a classified failure.
ProbeResult = bool | TransportError
#: Folds finished jobs and their results into a shard's state.
Settle = Callable[[Sequence[Job], Sequence[ProbeResult]], None]


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

    def _take(self, now: float, n: int) -> bool:
        """Refill to *now* and take *n* tokens if the bucket holds them."""
        if self._updated is None:
            self._updated = now
        self._tokens = min(
            self._capacity, self._tokens + (now - self._updated) * self._rate
        )
        self._updated = now
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    async def acquire(self, n: int = 1) -> None:
        """Block until *n* probe tokens are available.

        A grant larger than the burst capacity waits for the whole
        deficit — ``(n - tokens) / rate`` — so a batch pays for every
        probe in it, and acquirers arriving meanwhile queue behind it.
        """
        loop = asyncio.get_running_loop()
        # Nobody ahead and the tokens in the bucket: no lock to enter.
        # Any acquirer that has to wait goes through the lock, which is
        # FIFO.
        if not self._queued and self._take(loop.time(), n):
            return
        self._queued += 1
        try:
            async with self._lock:
                if self._take(loop.time(), n):
                    return
                deficit = n - self._tokens
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
        #: Total probes sent across the scanner's lifetime (ethics audit).
        self.probes_sent = 0
        #: Probes that failed with a *classified* transport error across
        #: the scanner's lifetime (feeds the platform's error budget).
        self.probe_errors = 0
        #: Wall-clock seconds spent inside :meth:`scan` calls (feeds
        #: the pipeline's per-stage throughput telemetry).
        self.scan_busy_seconds = 0.0

    async def scan(self, ips: Sequence[int]) -> list[ProbeOutcome]:
        """Probe *ips* under the global rate limit; outcomes come back
        in input order.

        Each IP is treated exactly once per call — the platform invokes
        one call per shard per round, matching the "at most three probes
        per IP per day" budget.  Blacklisted IPs are ``SKIPPED`` without
        a probe; every other target is probed.
        """
        started = time.perf_counter()
        try:
            outcomes: list = [None] * len(ips)
            pending = []
            for index, ip in enumerate(ips):
                if ip in self.blacklist:
                    outcomes[index] = ProbeOutcome(
                        ip=ip, status=ProbeStatus.SKIPPED)
                else:
                    pending.append(index)
            await self._probe_targets(ips, pending, outcomes)
            return outcomes
        finally:
            self.scan_busy_seconds += time.perf_counter() - started

    def stats_snapshot(self) -> dict[str, int]:
        """Lifetime counters, snapshotted — the platform diffs two
        snapshots to attribute errors/operations to one shard."""
        return {
            "probes_sent": self.probes_sent,
            "probe_errors": self.probe_errors,
        }

    async def _probe_targets(
        self, ips: Sequence[int], pending: list[int], outcomes: list
    ) -> None:
        """Run the job queue of the *pending* targets to empty, then
        write each target's outcome: its open ports, or — when nothing
        opened — the last classified error in port order."""
        web, fallback = WEB_PORTS, FALLBACK_PORTS
        retries = self.config.retries
        jobs: deque[Job] = deque(
            [(index, port, 0) for index in pending for port in web])
        web_left = dict.fromkeys(pending, len(web))
        opened: dict[int, list[int]] = {}
        errors: dict[tuple[int, int], str] = {}

        def settle(done: Sequence[Job], results: Sequence[ProbeResult]) -> None:
            """Fold finished probes in and queue what they make due."""
            for (index, port, attempt), result in zip(done, results):
                if isinstance(result, TransportError):
                    self.probe_errors += 1
                    errors[index, port] = result.kind
                    result = False
                if result:
                    opened.setdefault(index, []).append(port)
                elif attempt < retries:
                    jobs.append((index, port, attempt + 1))
                    continue
                if port in web:
                    left = web_left[index] - 1
                    web_left[index] = left
                    if not left and index not in opened:
                        for spare in fallback:
                            jobs.append((index, spare, 0))

        probe_many = getattr(self.transport, "probe_many", None)
        if probe_many is None:
            await self._drain_pool(ips, jobs, settle)
        else:
            await self._drain_batches(probe_many, ips, jobs, settle)

        order = web + fallback
        for index in pending:
            ip = ips[index]
            found = opened.get(index)
            if found:
                outcomes[index] = ProbeOutcome(
                    ip=ip, status=ProbeStatus.RESPONSIVE,
                    open_ports=frozenset(found))
                continue
            error = None
            if errors:
                for port in order:
                    error = errors.get((index, port), error)
            outcomes[index] = ProbeOutcome(
                ip=ip, status=ProbeStatus.UNRESPONSIVE, error_class=error)

    async def _drain_batches(
        self, probe_many, ips: Sequence[int], jobs: deque[Job], settle: Settle
    ) -> None:
        """Send everything queued as one ``probe_many`` call after one
        rate-limiter grant for all of it; repeat for what the results
        queued (fallbacks, retries)."""
        timeout = self.config.probe_timeout
        while jobs:
            batch = list(jobs)
            jobs.clear()
            await self._limiter.acquire(len(batch))
            self.probes_sent += len(batch)
            settle(batch, await probe_many(
                [(ips[index], port) for index, port, _ in batch], timeout))

    async def _drain_pool(
        self, ips: Sequence[int], jobs: deque[Job], settle: Settle
    ) -> None:
        """Drain *jobs* through up to ``min(concurrency, queued)``
        workers, one token and one ``probe`` per job.  A worker takes
        the next job the moment it is free, so no pass waits on the
        slowest probe of the one before.  A worker leaves when the queue
        is empty: a job queued later is queued by a worker still
        running, which stays to take it.

        Workers start one at a time, each once the one before has
        waited for the first time; a transport that never waits (the
        simulator behind a wrapper) is drained by the first alone,
        instead of starting thousands of workers that find nothing
        to do."""
        acquire = self._limiter.acquire
        probe = self.transport.probe
        timeout = self.config.probe_timeout

        async def worker() -> None:
            try:
                while jobs:
                    job = jobs.popleft()
                    await acquire()
                    self.probes_sent += 1
                    try:
                        result = await probe(ips[job[0]], job[1], timeout)
                    except TransportError as exc:
                        result = exc
                    settle((job,), (result,))
            except BaseException:
                # A crash ends the shard: empty the queue so no worker
                # is started on, or takes, the rest of it.
                jobs.clear()
                raise

        workers: list[asyncio.Task] = []
        try:
            for _ in range(min(self.config.concurrency, len(jobs))):
                if not jobs:
                    break
                workers.append(asyncio.create_task(worker()))
                await asyncio.sleep(0)      # let it run until it waits
            await asyncio.gather(*workers)
        finally:
            for task in workers:            # no-ops unless a worker failed
                task.cancel()
