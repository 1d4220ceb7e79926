"""Unit and integration tests for the supervision layer (guard.py):
deadlines, the bounded work queue, AIMD backpressure, hostile-content
inspection, and guarded feature extraction."""

from __future__ import annotations

import asyncio
import re

from hypothesis import given, strategies as st

from repro.core import fetcher as fetcher_module
from repro.core.config import FetchConfig
from repro.core.faults import FaultKind, FaultPlan, FaultyTransport, chaos_plan
from repro.core.features import FeatureExtractor
from repro.core.fetcher import Fetcher
from repro.core.guard import (
    QUARANTINE_PAYLOAD_BYTES,
    AimdController,
    GuardVerdict,
    StageDeadlineExceeded,
    Supervisor,
)
from repro.core.records import (
    FetchResult,
    FetchStatus,
    ProbeOutcome,
    ProbeStatus,
    UNKNOWN,
)

from _fakes import FakeTransport


def run(coro):
    return asyncio.run(coro)


async def feed_outcomes(controller: AimdController, outcomes: list[bool]):
    for ok in outcomes:
        await controller.acquire()
        await controller.release(ok)


class TestAimdController:
    def test_multiplicative_decrease_on_error_storm(self):
        controller = AimdController(64, window=8, error_threshold=0.5)
        run(feed_outcomes(controller, [False] * 8))
        assert controller.limit == 32
        assert controller.decreases == 1
        assert controller.min_observed == 32

    def test_decrease_respects_floor(self):
        controller = AimdController(
            16, min_limit=8, window=4, error_threshold=0.25
        )
        run(feed_outcomes(controller, [False] * 16))
        assert controller.limit == 8  # never below min_limit

    def test_additive_recovery_after_storm(self):
        controller = AimdController(64, window=8, error_threshold=0.5)
        run(feed_outcomes(controller, [False] * 8))
        assert controller.limit == 32
        run(feed_outcomes(controller, [True] * 16))
        assert controller.limit == 34
        assert controller.increases == 2

    def test_recovery_capped_at_max(self):
        controller = AimdController(4, window=2, error_threshold=0.5)
        run(feed_outcomes(controller, [True] * 50))
        assert controller.limit == 4

    def test_evaluates_once_per_window(self):
        # 2 windows of all-failures: exactly 2 halvings, not one per
        # outcome once the window is full.
        controller = AimdController(64, window=8, error_threshold=0.5)
        run(feed_outcomes(controller, [False] * 16))
        assert controller.decreases == 2
        assert controller.limit == 16

    def test_survives_multiple_event_loops(self):
        # The platform calls asyncio.run once per round; the condition
        # must rebind without losing AIMD state.
        controller = AimdController(64, window=8, error_threshold=0.5)
        run(feed_outcomes(controller, [False] * 8))
        run(feed_outcomes(controller, [False] * 8))
        assert controller.decreases == 2
        assert controller.limit == 16


class TestSupervisorMap:
    def _map(self, supervisor, items, worker, **kwargs):
        kwargs.setdefault("stage", Supervisor.FETCH)
        kwargs.setdefault("deadline", 5.0)
        kwargs.setdefault("fallback", lambda item, exc: ("fallback", item))
        return run(supervisor.map(items, worker, **kwargs))

    def test_preserves_input_order(self):
        supervisor = Supervisor(concurrency=7)

        async def double(n):
            await asyncio.sleep(0.001 * (n % 5))
            return n * 2

        results = self._map(supervisor, list(range(100)), double)
        assert results == [n * 2 for n in range(100)]
        assert supervisor.tasks_run == 100

    def test_empty_input(self):
        supervisor = Supervisor(concurrency=4)

        async def boom(n):  # pragma: no cover - never called
            raise AssertionError

        assert self._map(supervisor, [], boom) == []

    def test_deadline_kill_yields_fallback(self):
        supervisor = Supervisor(concurrency=4)

        async def hang(n):
            if n == 3:
                await asyncio.sleep(30)
            return n

        results = self._map(supervisor, list(range(6)), hang, deadline=0.05)
        assert results[3] == ("fallback", 3)
        assert [r for i, r in enumerate(results) if i != 3] == [0, 1, 2, 4, 5]
        assert supervisor.deadline_kills[Supervisor.FETCH] == 1

    def test_fallback_receives_stage_deadline_error(self):
        supervisor = Supervisor(concurrency=2)
        seen = {}

        async def hang(n):
            await asyncio.sleep(30)

        self._map(
            supervisor, [1], hang, deadline=0.05,
            fallback=lambda item, exc: seen.setdefault(item, exc),
        )
        assert isinstance(seen[1], StageDeadlineExceeded)
        assert seen[1].kind == "stage-deadline"

    def test_trapped_exception_yields_fallback(self):
        supervisor = Supervisor(concurrency=4)

        async def poison(n):
            if n % 2:
                raise RuntimeError(f"poison {n}")
            return n

        results = self._map(supervisor, list(range(6)), poison)
        assert results == [0, ("fallback", 1), 2, ("fallback", 3),
                           4, ("fallback", 5)]
        assert supervisor.trapped[Supervisor.FETCH] == 3

    def test_concurrency_stays_bounded(self):
        supervisor = Supervisor(concurrency=5)
        active = 0
        peak = 0

        async def busy(n):
            nonlocal active, peak
            active += 1
            peak = max(peak, active)
            await asyncio.sleep(0.002)
            active -= 1
            return n

        self._map(supervisor, list(range(60)), busy)
        assert peak <= 5
        assert supervisor.controller.peak_in_flight <= 5


def page(body: str, headers: dict | None = None) -> FetchResult:
    return FetchResult(
        ip=1, status=FetchStatus.OK, url="http://1.2.3.4/",
        status_code=200,
        headers=headers if headers is not None else {"Server": "x"},
        body=body,
    )


class TestInspect:
    def setup_method(self):
        self.guard = Supervisor()

    def test_clean_page_is_ok(self):
        assert self.guard.inspect(
            page("<html><title>hi</title></html>")
        ) is GuardVerdict.OK

    def test_header_bomb(self):
        headers = {f"X-T-{n}": "x" for n in range(300)}
        assert self.guard.inspect(
            page("<html></html>", headers)
        ) is GuardVerdict.HEADER_BOMB

    def test_binary_garbage(self):
        assert self.guard.inspect(
            page("\x00" * 100 + "<html></html>")
        ) is GuardVerdict.BINARY_GARBAGE

    def test_title_bomb_unterminated(self):
        assert self.guard.inspect(
            page("<title>" + "A" * 200_000)
        ) is GuardVerdict.TITLE_BOMB

    def test_title_bomb_terminated(self):
        body = "<title>" + "A" * 200_000 + "</title>"
        assert self.guard.inspect(page(body)) is GuardVerdict.TITLE_BOMB
        assert self.guard.inspect(
            page("<title>" + "A" * 10 + "</title>")
        ) is GuardVerdict.OK

    def test_markup_bomb(self):
        assert self.guard.inspect(
            page("<div>" * 10_000)
        ) is GuardVerdict.MARKUP_BOMB

    def test_balanced_markup_is_ok(self):
        assert self.guard.inspect(
            page("<div></div>" * 10_000)
        ) is GuardVerdict.OK

    def test_empty_body_is_ok(self):
        assert self.guard.inspect(page("")) is GuardVerdict.OK

    @given(st.text(alphabet="<</aZ9 >\u00e9", max_size=300))
    def test_tag_counts_equal_one_match_at_a_time(self, body):
        """The guard counts tags without a Python step per match; both
        counts equal a ``finditer`` walk of the same patterns."""
        from repro.core.guard import _OPEN_TAG_RE

        assert len(_OPEN_TAG_RE.findall(body)) == sum(
            1 for _ in _OPEN_TAG_RE.finditer(body)
        )
        assert body.count("</") == sum(
            1 for _ in re.finditer("</", body)
        )


class _PoisonExtractor(FeatureExtractor):
    def extract(self, fetch):
        raise RecursionError("maximum recursion depth exceeded")


class TestGuardedExtraction:
    def test_clean_page_untouched(self):
        guard = Supervisor()
        features = guard.extract_features(
            FeatureExtractor(), page("<html><title>hi</title></html>")
        )
        assert features.title == "hi"
        assert guard.drain_quarantine() == []

    def test_poison_extractor_yields_sentinel_and_quarantine(self):
        guard = Supervisor()
        guard.start_round(4, 12)
        body = "<html>poison</html>"
        features = guard.extract_features(_PoisonExtractor(), page(body))
        assert features.title == UNKNOWN
        assert features.html_length == len(body)
        (entry,) = guard.drain_quarantine()
        assert entry.stage == "extract"
        assert entry.verdict == GuardVerdict.TASK_ERROR.value
        assert entry.error_class == "RecursionError"
        assert entry.round_id == 4 and entry.timestamp == 12
        assert guard.trapped[Supervisor.EXTRACT] == 1

    def test_hostile_verdict_keeps_features_but_quarantines(self):
        guard = Supervisor()
        body = "<title>" + "A" * 200_000
        features = guard.extract_features(FeatureExtractor(), page(body))
        # Extraction itself succeeded, so the real features survive...
        assert features.html_length == len(body)
        # ...but the page is flagged for replay.
        (entry,) = guard.drain_quarantine()
        assert entry.verdict == GuardVerdict.TITLE_BOMB.value
        assert entry.payload == body[:QUARANTINE_PAYLOAD_BYTES]

    def test_quarantine_payload_truncated(self):
        guard = Supervisor()
        guard.quarantine(
            ip=1, stage=Supervisor.EXTRACT,
            verdict=GuardVerdict.MARKUP_BOMB, payload="x" * 10_000,
        )
        (entry,) = guard.drain_quarantine()
        assert len(entry.payload) == QUARANTINE_PAYLOAD_BYTES

    def test_stats_shape(self):
        guard = Supervisor(concurrency=16)
        stats = guard.stats()
        assert stats["concurrency_limit"] == 16
        assert stats["quarantined"] == 0
        assert set(stats) >= {
            "tasks_run", "deadline_kills_fetch",
            "trapped_fetch", "trapped_extract", "aimd_decreases",
            "aimd_increases",
        }


class _ThreadNotingExtractor(FeatureExtractor):
    """Records which thread ran each extract call."""

    def __init__(self):
        super().__init__()
        self.threads: list[str] = []

    def extract(self, fetch):
        import threading

        self.threads.append(threading.current_thread().name)
        return super().extract(fetch)


def _at(ip: int, fetch: FetchResult) -> FetchResult:
    import dataclasses

    return dataclasses.replace(fetch, ip=ip)


class TestBodyMemo:
    """The guard's side of the one-digest contract: a body's verdict is
    memoised with its features, and neither changes what quarantine
    sees nor what may run inline."""

    TITLE_BOMB = "<title>" + "A" * 200_000

    def test_memoised_verdict_still_quarantines_each_occurrence(self):
        guard = Supervisor()
        inspected = []
        real = guard._inspect_body
        guard._inspect_body = lambda body: inspected.append(1) or real(body)
        extractor = FeatureExtractor()
        guard.start_round(2, 5)
        for ip in (7, 8, 9):
            guard.extract_features(
                extractor, _at(ip, page(self.TITLE_BOMB)))
        entries = guard.drain_quarantine()
        assert [e.ip for e in entries] == [7, 8, 9]
        assert {e.verdict for e in entries} == {GuardVerdict.TITLE_BOMB.value}
        assert all(e.round_id == 2 for e in entries)
        assert len(inspected) == 1

    def test_header_bomb_is_judged_per_fetch(self):
        guard = Supervisor()
        body = "<html><title>same body</title></html>"
        bomb = {f"X-T-{n}": "x" for n in range(300)}
        assert guard.inspect(page(body, bomb)) is GuardVerdict.HEADER_BOMB
        assert guard.inspect(page(body)) is GuardVerdict.OK
        assert guard.inspect(page(body, bomb)) is GuardVerdict.HEADER_BOMB

    def test_memo_hit_never_goes_to_the_executor(self):
        """No page leaves the calling thread: a suspect body and its
        memo hit alike run inline."""
        import threading

        guard = Supervisor()
        extractor = _ThreadNotingExtractor()
        first = guard.extract_features(extractor, page(self.TITLE_BOMB))
        second = guard.extract_features(extractor, page(self.TITLE_BOMB))
        assert first == second
        main = threading.current_thread().name
        assert extractor.threads == [main, main]

    def test_trapped_exception_is_never_memoised(self, monkeypatch):
        import repro.core.features as features_module

        real = features_module.compute_simhash
        calls = []

        def fails_once(body):
            calls.append(1)
            if len(calls) == 1:
                raise RecursionError("maximum recursion depth exceeded")
            return real(body)

        monkeypatch.setattr(features_module, "compute_simhash", fails_once)
        guard = Supervisor()
        extractor = FeatureExtractor()
        body = "<html><title>flaky</title></html>"
        sentinel = guard.extract_features(extractor, page(body))
        assert sentinel.title == UNKNOWN
        features = guard.extract_features(extractor, page(body))
        assert features.title == "flaky"
        assert len(calls) == 2          # the failure stored nothing
        assert guard.extract_features(extractor, page(body)) == features
        assert len(calls) == 2          # the success was stored
        assert guard.trapped[Supervisor.EXTRACT] == 1


def _outcomes(n: int) -> list[ProbeOutcome]:
    return [
        ProbeOutcome(
            ip=ip, status=ProbeStatus.RESPONSIVE,
            open_ports=frozenset({80}),
        )
        for ip in range(1, n + 1)
    ]


def _storm_fetcher(rate: float, *, workers: int = 32) -> Fetcher:
    inner = FakeTransport()
    for ip in range(1, 513):
        inner.add_host(ip, {80}, body=f"<html><title>h{ip}</title></html>")
    faulty = FaultyTransport(
        inner,
        chaos_plan(3, rate=rate, kinds=(FaultKind.CONNECT_TIMEOUT,)),
    )
    config = FetchConfig(workers=workers)
    guard = Supervisor(concurrency=workers)
    guard.controller = AimdController(
        workers, min_limit=2, window=16, error_threshold=0.4
    )
    fetcher = Fetcher(faulty, config, guard=guard)
    fetcher.faulty = faulty
    return fetcher


class TestAimdUnderStorm:
    def test_timeout_storm_reduces_then_restores_concurrency(self):
        # Acceptance: under a >50% connect-timeout storm the supervisor
        # demonstrably sheds concurrency, then recovers on clean air.
        fetcher = _storm_fetcher(0.55)
        results = fetcher.fetch_sync(_outcomes(512))
        assert len(results) == 512
        stats = fetcher.guard.stats()
        assert stats["aimd_decreases"] >= 1
        assert stats["concurrency_min_observed"] < 32
        storm_floor = stats["concurrency_limit"]

        # Clean air: additive recovery raises the limit back up.
        fetcher.faulty.plan = FaultPlan()
        results = fetcher.fetch_sync(_outcomes(512))
        assert all(r.status is FetchStatus.OK for r in results)
        stats = fetcher.guard.stats()
        assert stats["aimd_increases"] >= 1
        assert stats["concurrency_limit"] > storm_floor

    def test_errors_recorded_and_quarantined(self):
        fetcher = _storm_fetcher(0.55)
        results = fetcher.fetch_sync(_outcomes(256))
        errors = [r for r in results if r.status is FetchStatus.ERROR]
        assert errors, "storm injected no failures?"
        assert all(r.error_class == "connect-timeout" for r in errors)
        # Transport errors surface through fetch_ip's own handler, not
        # the guard fallback, so they are NOT quarantine entries...
        assert fetcher.guard.drain_quarantine() == []
        # ...but they do feed the AIMD window.
        assert fetcher.fetch_errors == len(errors)


class TestFetcherGuardFallback:
    def test_worker_crash_becomes_error_result_plus_quarantine(self):
        class CrashingFetcher(Fetcher):
            async def fetch_ip(self, outcome):
                raise ValueError("exploded mid-fetch")

        fetcher = CrashingFetcher(FakeTransport())
        fetcher.guard.start_round(7, 3)
        (result,) = fetcher.fetch_sync(_outcomes(1))
        assert result.status is FetchStatus.ERROR
        assert result.error == "exploded mid-fetch"
        (entry,) = fetcher.guard.drain_quarantine()
        assert entry.stage == "fetch"
        assert entry.verdict == GuardVerdict.TASK_ERROR.value
        assert entry.error_class == "ValueError"
        assert entry.round_id == 7

    def test_hung_fetch_killed_by_stage_deadline(self, monkeypatch):
        class HangingTransport(FakeTransport):
            async def get(self, *args, **kwargs):
                await asyncio.sleep(30)

        monkeypatch.setattr(fetcher_module, "FETCH_DEADLINE", 0.1)
        guard = Supervisor(concurrency=4)
        fetcher = Fetcher(HangingTransport(), guard=guard)
        (result,) = fetcher.fetch_sync(_outcomes(1))
        assert result.status is FetchStatus.ERROR
        assert result.error_class == "stage-deadline"
        (entry,) = guard.drain_quarantine()
        assert entry.verdict == GuardVerdict.STAGE_DEADLINE.value
        assert guard.deadline_kills[Supervisor.FETCH] == 1
