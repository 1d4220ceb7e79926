"""Overload-protection primitives for the query-serving layer.

Everything here exists to keep ``repro serve`` *degrading* instead of
*collapsing* when offered load exceeds capacity or the store turns
sick: a token-bucket :class:`AdmissionController` with a bounded wait
queue (explicit ``429`` shedding beyond it), a per-endpoint
time-based :class:`CircuitBreaker`, and a :class:`ReadPool` bounding
concurrent read-only store connections.  All clocks are injectable so the chaos
tests drive these deterministically.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable

from ..core.backoff import retry_after_seconds

__all__ = [
    "Admission",
    "AdmissionController",
    "BreakerState",
    "CircuitBreaker",
    "PoolTimeout",
    "ReadPool",
    "TokenBucket",
]


class TokenBucket:
    """Token bucket on an injectable monotonic clock.

    Unlike the scanner's async ``RateLimiter`` this one never sleeps —
    callers either take a token now or are told how long until the next
    one, so the admission controller stays in charge of all waiting
    (and can bound it by the request's deadline)."""

    def __init__(
        self,
        rate_per_second: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self._rate = rate_per_second
        self._capacity = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self._capacity, self._tokens + (now - self._stamp) * self._rate
        )
        self._stamp = now

    def try_acquire(self, n: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def next_token_in(self) -> float:
        """Seconds until one token will be available (0 if already)."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self._rate


class Admission:
    """Outcome of one admission attempt."""

    __slots__ = ("admitted", "retry_after")

    def __init__(self, admitted: bool, retry_after: int = 0):
        self.admitted = admitted
        self.retry_after = retry_after


class AdmissionController:
    """Token-bucket admission with a bounded accept queue.

    A request that finds no token may *wait* for one — but only
    ``queue_limit`` requests may wait at once, and never past their own
    deadline.  Everything else is shed immediately with a jittered
    ``Retry-After`` hint that grows with the consecutive-shed streak,
    de-synchronising the retrying herd.

    The wait queue is **FIFO**: replenished tokens go to the oldest
    waiter, and a newly-arrived request may only grab a token directly
    while nobody is queued.  Without this, under sustained overload the
    arrival flood steals every fresh token from the queue and an
    admitted request's latency stretches to its full deadline budget —
    with it, queue wait is bounded by ``queue_limit / rate``."""

    def __init__(
        self,
        bucket: TokenBucket,
        *,
        queue_limit: int,
        retry_after_base: float,
        retry_after_max: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._bucket = bucket
        self._queue_limit = queue_limit
        self._retry_base = retry_after_base
        self._retry_max = retry_after_max
        self._clock = clock
        self._queue: deque = deque()
        self._shed_streak = 0

    @property
    def waiting(self) -> int:
        return len(self._queue)

    def _shed(self) -> Admission:
        self._shed_streak += 1
        hint = retry_after_seconds(
            min(self._shed_streak, 16),
            base=self._retry_base,
            cap=self._retry_max,
            key=f"serve-shed:{self._shed_streak}",
        )
        return Admission(False, hint)

    async def admit(self, deadline: float) -> Admission:
        """Admit or shed one request; *deadline* bounds any waiting."""
        if not self._queue and self._bucket.try_acquire():
            self._shed_streak = 0
            return Admission(True)
        if len(self._queue) >= self._queue_limit:
            return self._shed()
        me = object()
        self._queue.append(me)
        try:
            while True:
                if self._queue[0] is me and self._bucket.try_acquire():
                    self._shed_streak = 0
                    return Admission(True)
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return self._shed()
                pause = max(0.001, min(
                    self._bucket.next_token_in(), remaining
                ))
                await asyncio.sleep(pause)
        finally:
            self._queue.remove(me)


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    #: Gauge encoding for telemetry.
    VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """Per-endpoint breaker: fail fast while the store is sick.

    A serving breaker must *recover on its own*, so this one is the
    classic time-based state machine: ``closed`` → (``threshold`` consecutive failures) →
    ``open`` (shed instantly) → after ``cooldown`` → ``half-open`` (one
    probe request allowed through) → back to ``closed`` on success, or
    straight back to ``open`` on failure.  ``threshold <= 0`` disables
    the breaker entirely."""

    def __init__(
        self,
        threshold: int,
        cooldown: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._streak = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        # Promote open → half-open lazily on observation, so state
        # reads don't need a timer.
        if (
            self._state == BreakerState.OPEN
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = BreakerState.HALF_OPEN
            self._probing = False
        return self._state

    @property
    def state_value(self) -> int:
        return BreakerState.VALUES[self.state]

    def allow(self) -> bool:
        """May a request proceed right now?  In half-open state exactly
        one in-flight probe is allowed at a time."""
        if self.threshold <= 0:
            return True
        state = self.state
        if state == BreakerState.CLOSED:
            return True
        if state == BreakerState.HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._streak = 0
        self._probing = False
        self._state = BreakerState.CLOSED

    def record_failure(self) -> None:
        if self.threshold <= 0:
            return
        self._streak += 1
        if (
            self._state == BreakerState.HALF_OPEN
            or self._streak >= self.threshold
        ):
            self._state = BreakerState.OPEN
            self._opened_at = self._clock()
            self._probing = False


class PoolTimeout(Exception):
    """No read connection became free inside the caller's budget."""


class ReadPool:
    """Bounded pool of read-only store connections.

    Pool size == maximum concurrent store reads: requests beyond it
    wait (bounded by their deadline) for a lease instead of opening
    unbounded connections.  Leases may be released from worker threads
    (reads run in ``asyncio.to_thread``), so release marshals back to
    the event loop."""

    def __init__(self, factory: Callable[[], object], size: int):
        if size <= 0:
            raise ValueError("pool size must be positive")
        self._factory = factory
        self.size = size
        self._idle: asyncio.Queue = asyncio.Queue()
        self._stores: list = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closed = False

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        for _ in range(self.size):
            store = await asyncio.to_thread(self._factory)
            self._stores.append(store)
            self._idle.put_nowait(store)

    async def acquire(self, timeout: float):
        if self._closed:
            raise PoolTimeout("pool is closed")
        if timeout <= 0:
            raise PoolTimeout("no budget left to wait for a reader")
        try:
            return await asyncio.wait_for(self._idle.get(), timeout)
        except asyncio.TimeoutError:
            raise PoolTimeout(
                f"no reader free within {timeout:.3f}s"
            ) from None

    def release(self, store) -> None:
        """Return a lease; safe to call from any thread."""
        if self._closed:
            return
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._idle.put_nowait, store)
        else:  # pool torn down mid-release
            self._idle.put_nowait(store)

    def close(self) -> None:
        self._closed = True
        for store in self._stores:
            try:
                store.close()
            except Exception:
                pass
        self._stores.clear()
