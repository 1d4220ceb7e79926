"""Shared jittered exponential backoff.

The store's SQLITE_BUSY commit retry and the worker supervisor's
partition-reassignment hold wait by the same rule, and the serving
layer's ``Retry-After`` hint uses it too: capped exponential growth
scaled by a jitter multiplier in ``[0.5, 1.5)``, where the jitter
source is either a **seeded key** (deterministic per logical retry, so
campaign output never depends on wall-clock luck) or a caller-owned
:class:`random.Random` (for timing-only jitter like the store's busy
retry, which never touches data).  The call sites:

* worker reassignment: key ``backoff:{round_id}:{partition}:{attempt}``
* store busy retry: caller-owned unseeded RNG
"""

from __future__ import annotations

import math
import random

__all__ = ["backoff_delay", "retry_after_seconds"]


def backoff_delay(
    attempt: int,
    *,
    base: float,
    cap: float,
    key: str | None = None,
    rng: random.Random | None = None,
) -> float:
    """Delay in seconds before retry *attempt* (0-based).

    The undithered delay is ``min(base * 2**attempt, cap)``; the
    returned value is that delay scaled by a uniform draw from
    ``[0.5, 1.5)``.  Exactly one jitter source applies:
    *key* seeds a throwaway :class:`random.Random` (same key, same
    delay — deterministic across processes and runs), *rng* draws from
    a caller-owned generator, and with neither the module-level RNG is
    used (timing jitter only — never for anything data-bearing).
    """
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    if base < 0 or cap < 0:
        raise ValueError("base and cap must be non-negative")
    delay = min(base * (2 ** attempt), cap)
    if key is not None:
        draw = random.Random(key).random()
    elif rng is not None:
        draw = rng.random()
    else:
        draw = random.random()
    return delay * (0.5 + draw)


def retry_after_seconds(
    attempt: int, *, base: float, cap: float, key: str
) -> int:
    """Whole-second ``Retry-After`` hint for load shedding: the seeded
    :func:`backoff_delay` for *attempt*, rounded up to at least 1 s so
    the header is always a positive integer.  Consecutive sheds pass a
    growing *attempt*, spreading retries of a rejected thundering herd
    instead of re-synchronising it."""
    delay = backoff_delay(attempt, base=base, cap=cap, key=key)
    return max(1, math.ceil(delay))
