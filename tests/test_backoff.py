"""Behavior pins for the shared jittered-backoff helper.

``core/backoff.py`` replaced independent implementations in the store's
busy-retry and the worker supervisor's partition reassignment.  These
tests re-state each call site's *original* formula literally and assert
the shared helper still produces the exact same delays — it must not
shift a single retry schedule.
"""

from __future__ import annotations

import random

import pytest

from repro.core.backoff import backoff_delay, retry_after_seconds


class MidBand(random.Random):
    """Draws 0.5 every time: the jitter multiplier is exactly 1."""

    def random(self):
        return 0.5


class TestBackoffDelay:
    def test_exponential_growth_and_cap(self):
        delays = [
            backoff_delay(a, base=0.1, cap=2.0, rng=MidBand())
            for a in range(8)
        ]
        assert delays[:5] == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4),
            pytest.approx(0.8), pytest.approx(1.6),
        ]
        assert delays[5:] == [pytest.approx(2.0)] * 3  # capped

    def test_keyed_jitter_is_deterministic(self):
        a = backoff_delay(3, base=0.5, cap=30.0, key="k:1")
        b = backoff_delay(3, base=0.5, cap=30.0, key="k:1")
        c = backoff_delay(3, base=0.5, cap=30.0, key="k:2")
        assert a == b
        assert a != c

    def test_jitter_band_is_respected(self):
        for attempt in range(6):
            for key in ("x", "y", "z"):
                raw = min(0.5 * 2 ** attempt, 8.0)
                delay = backoff_delay(attempt, base=0.5, cap=8.0, key=key)
                assert 0.5 * raw <= delay <= 1.5 * raw

    def test_caller_rng_draws_from_that_rng(self):
        rng = random.Random(42)
        expected_draw = random.Random(42).random()
        delay = backoff_delay(2, base=0.05, cap=1.0, rng=rng)
        assert delay == pytest.approx(
            min(0.05 * 4, 1.0) * (0.5 + expected_draw)
        )

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            backoff_delay(-1, base=0.1, cap=1.0)
        with pytest.raises(ValueError):
            backoff_delay(0, base=-0.1, cap=1.0)


class TestCallSitePins:
    """Each former implementation, restated literally, must match."""

    def test_worker_formula_unchanged(self):
        for round_id, partition, attempt in [
            (1, 0, 0), (1, 3, 2), (12, 7, 5),
        ]:
            # Original WorkerSupervisor._backoff_delay, verbatim
            # (base 0.5 s and cap 8.0 s, the worker backoff defaults of
            # that time):
            base = min(0.5 * (2 ** attempt), 8.0)
            jitter = random.Random(
                f"backoff:{round_id}:{partition}:{attempt}"
            ).random()
            legacy = base * (0.5 + jitter)
            assert backoff_delay(
                attempt, base=0.5, cap=8.0,
                key=f"backoff:{round_id}:{partition}:{attempt}",
            ) == pytest.approx(legacy, rel=0, abs=0)

    def test_store_busy_retry_formula_unchanged(self):
        # Original MeasurementStore._commit loop: delay starts at
        # busy_backoff_base, sleeps delay * (0.5 + rng.random()), then
        # doubles capped at busy_backoff_max — i.e. attempt N sleeps
        # min(base * 2**N, max) scaled by the N-th draw of the shared
        # instance RNG.
        legacy_rng = random.Random(7)
        new_rng = random.Random(7)
        base, cap = 0.05, 1.0
        delay = base
        for attempt in range(8):
            legacy = delay * (0.5 + legacy_rng.random())
            delay = min(delay * 2, cap)
            assert backoff_delay(
                attempt, base=base, cap=cap, rng=new_rng
            ) == pytest.approx(legacy, rel=0, abs=0)


class TestRetryAfter:
    def test_integral_and_at_least_one_second(self):
        for attempt in range(10):
            hint = retry_after_seconds(
                attempt, base=0.5, cap=8.0, key=f"shed:{attempt}"
            )
            assert isinstance(hint, int)
            assert 1 <= hint <= 12  # cap 8s * jitter 1.5, ceiled

    def test_grows_with_attempts(self):
        early = retry_after_seconds(0, base=0.5, cap=8.0, key="s")
        late = retry_after_seconds(9, base=0.5, cap=8.0, key="s")
        assert late >= early
