"""Pipeline supervision: deadlines, adaptive backpressure, quarantine.

WhoWas fetches top-level pages from millions of uncurated cloud IPs, and
the wild web serves exactly the adversarial inputs that break
hosting-environment crawlers: header bombs, deeply-nested or
unterminated HTML, encoding garbage, slow-loris bodies, megabyte
``<title>`` tags.  The transport and the store are already resilient;
this module makes the *pipeline* resilient — a single poison page may
cost its own record, never a round.

:class:`Supervisor` is the one place per-task fault policy lives:

* **Deadlines** — every per-IP unit of work :meth:`Supervisor.map`
  runs under a per-stage wall-clock ceiling (``asyncio.wait_for`` with
  cancel-and-record semantics).  A blown deadline yields a sentinel
  result plus a dead-letter record, not a hung round.  Work a
  ``BatchGet`` transport answers in batch calls never suspends, so it
  has no deadline to enforce; :meth:`Supervisor.trap` and
  :meth:`Supervisor.settle` give each of its items the rest of the
  policy.
* **Work queue** — :meth:`Supervisor.map` bounds in-flight tasks with a
  real feeder/worker queue instead of one-task-per-item ``gather``,
  so a 4.7M-IP round holds thousands, not millions, of task objects.
* **AIMD backpressure** — :class:`AimdController` halves the fetch
  concurrency limit when the rolling timeout/error rate crosses
  :data:`AIMD_ERROR_THRESHOLD` and recovers additively once the storm
  passes.
* **Dead-letter quarantine** — any exception trapped in the fetch or
  extract stage, any blown deadline, and any hostile-content verdict
  produces a :class:`~repro.core.records.QuarantineRecord`; the store
  journals them next to the round so ``repro quarantine replay`` can
  re-process the pages after an extractor fix.

Extraction runs inline, with no deadline: every body reader is linear,
so a page costs at most the fetcher's 512 KB cap times one scan.  A
deadline could not bound it anyway — ``re`` holds the GIL through a
whole search, so a timer on the event loop never fires mid-match.
"""

from __future__ import annotations

import asyncio
import enum
import re
from collections import Counter, deque
from typing import Awaitable, Callable, Sequence, TypeVar

from .features import FeatureExtractor, RoundMemo
from .records import FetchResult, PageFeatures, QuarantineRecord
from .transport import TransportError
from . import telemetry as _telemetry

__all__ = [
    "GuardVerdict",
    "StageDeadlineExceeded",
    "AimdController",
    "Supervisor",
]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


class StageDeadlineExceeded(TransportError):
    """A supervised pipeline stage blew its wall-clock deadline."""

    kind = "stage-deadline"


class GuardVerdict(enum.Enum):
    """Why the guard quarantined (or cleared) a unit of work."""

    #: Nothing suspicious; the page flows through unquarantined.
    OK = "ok"
    #: The stage exceeded its wall-clock deadline and was cancelled.
    STAGE_DEADLINE = "stage-deadline"
    #: The stage raised an exception the guard trapped.
    TASK_ERROR = "task-error"
    #: Response carried pathologically many headers.
    HEADER_BOMB = "header-bomb"
    #: ``<title>`` content beyond the configured byte ceiling.
    TITLE_BOMB = "title-bomb"
    #: Body riddled with NUL bytes / undecodable garbage.
    BINARY_GARBAGE = "binary-garbage"
    #: Deeply-nested or unterminated markup (tag-open bomb).
    MARKUP_BOMB = "markup-bomb"


#: Verdicts produced by content inspection (vs. runtime failures).
_CONTENT_VERDICTS = frozenset({
    GuardVerdict.HEADER_BOMB,
    GuardVerdict.TITLE_BOMB,
    GuardVerdict.BINARY_GARBAGE,
    GuardVerdict.MARKUP_BOMB,
})

_TITLE_OPEN_RE = re.compile(r"<title", re.IGNORECASE)
_TITLE_CLOSE_RE = re.compile(r"</title", re.IGNORECASE)
_OPEN_TAG_RE = re.compile(r"<[A-Za-z]")

#: Wall-clock ceiling in seconds for one IP's whole pooled fetch task
#: (robots.txt + page GET).  A task that blows it is cancelled, recorded
#: as a ``stage-deadline`` fetch error, and quarantined.  A ``BatchGet``
#: transport never suspends, so its batch calls have nothing to cancel.
FETCH_DEADLINE = 30.0
#: AIMD backpressure: recent fetch outcomes evaluated between
#: concurrency adjustments.
AIMD_WINDOW = 64
#: A windowed failure fraction above this halves the fetch concurrency
#: limit; at or below it, the limit recovers by one per window.
AIMD_ERROR_THRESHOLD = 0.5
#: The fetch concurrency limit never drops below this floor.
AIMD_MIN_CONCURRENCY = 8
#: Responses with more headers than this are quarantined as header
#: bombs.
MAX_RESPONSE_HEADERS = 256
#: ``<title>`` content longer than this (bytes of text, terminated or
#: not) is quarantined as a title bomb.
_MAX_TITLE_BYTES = 100_000
#: Bodies with more NUL bytes than this are quarantined as binary
#: garbage.
_MAX_NULL_BYTES = 64
#: Bodies with more unclosed element tags than this are quarantined as
#: markup bombs (deeply-nested / unterminated HTML).
_MAX_UNCLOSED_TAGS = 5_000
#: How much of the offending body is preserved in the quarantine record
#: for post-mortem.
QUARANTINE_PAYLOAD_BYTES = 256


def _truncate(text: str, limit: int) -> str:
    return text if len(text) <= limit else text[:limit]


def _sentinel_features(body: str) -> PageFeatures:
    """What a quarantined page contributes to its round record: every
    feature unknown, only the raw length preserved."""
    return PageFeatures(html_length=len(body))


class AimdController:
    """Additive-increase / multiplicative-decrease concurrency gate.

    Workers call :meth:`acquire` before and :meth:`release` after each
    unit of work; the gate admits at most :attr:`limit` units at once.
    Outcomes feed a rolling window, evaluated once per window-length of
    results: an error fraction above the threshold halves the limit
    (never below ``min_limit``); otherwise the limit recovers by
    ``increase_step`` (never above ``max_limit``).

    The asyncio condition is (re)bound lazily to the running loop, so
    one controller safely spans the platform's one-``asyncio.run``-per-
    round lifecycle while keeping its AIMD state across rounds.
    """

    def __init__(
        self,
        limit: int,
        *,
        min_limit: int = 1,
        window: int = AIMD_WINDOW,
        error_threshold: float = AIMD_ERROR_THRESHOLD,
        increase_step: int = 1,
    ):
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.max_limit = limit
        self.limit = limit
        self.min_limit = max(1, min(min_limit, limit))
        self._threshold = error_threshold
        self._step = max(1, increase_step)
        self._window: deque[bool] = deque(maxlen=max(1, window))
        self._since_eval = 0
        self._active = 0
        self._cond: asyncio.Condition | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Telemetry the chaos suite asserts against.
        self.decreases = 0
        self.increases = 0
        self.min_observed = limit
        self.peak_in_flight = 0
        tel = _telemetry.get()
        self._m_limit = tel.gauge(
            "repro_aimd_limit", "Current AIMD fetch-concurrency limit"
        )
        self._m_in_flight = tel.gauge(
            "repro_aimd_in_flight", "Fetch units of work currently admitted"
        )
        self._m_changes = tel.counter(
            "repro_aimd_changes_total",
            "AIMD limit adjustments by direction",
            labels=("direction",),
        )
        self._m_limit.set(limit)

    def _condition(self) -> asyncio.Condition:
        loop = asyncio.get_running_loop()
        if self._cond is None or self._loop is not loop:
            self._cond = asyncio.Condition()
            self._loop = loop
            self._active = 0
        return self._cond

    async def acquire(self) -> None:
        """Block until the current limit admits another unit of work."""
        cond = self._condition()
        async with cond:
            await cond.wait_for(lambda: self._active < self.limit)
            self._active += 1
            self.peak_in_flight = max(self.peak_in_flight, self._active)
            self._m_in_flight.set(self._active)

    async def release(self, ok: bool) -> None:
        """Return a slot and feed the outcome to the AIMD window."""
        cond = self._condition()
        async with cond:
            self._active = max(0, self._active - 1)
            self._m_in_flight.set(self._active)
            self.record(ok)
            cond.notify_all()

    @property
    def in_flight(self) -> int:
        return self._active

    def record(self, ok: bool) -> None:
        """Feed one outcome to the AIMD window (``release`` does this
        for admitted work; the batch path calls it directly)."""
        self._window.append(ok)
        self._since_eval += 1
        maxlen = self._window.maxlen or 1
        if self._since_eval < maxlen or len(self._window) < maxlen:
            return
        self._since_eval = 0
        failures = sum(1 for good in self._window if not good)
        if failures / len(self._window) > self._threshold:
            halved = max(self.min_limit, self.limit // 2)
            if halved < self.limit:
                self.limit = halved
                self.decreases += 1
                self.min_observed = min(self.min_observed, halved)
                self._m_limit.set(self.limit)
                self._m_changes.labels(direction="decrease").inc()
        elif self.limit < self.max_limit:
            self.limit = min(self.max_limit, self.limit + self._step)
            self.increases += 1
            self._m_limit.set(self.limit)
            self._m_changes.labels(direction="increase").inc()


class Supervisor:
    """Wraps every per-IP unit of work in the pipeline's fault policy.

    One instance supervises a platform for its lifetime: the fetcher
    routes its pool through :meth:`map`, the platform routes feature
    extraction through :meth:`extract_features`, and both sides feed
    the same dead-letter buffer the store journals per shard.
    """

    #: Stage labels used in quarantine records and stats.
    FETCH = "fetch"
    EXTRACT = "extract"
    BANNER = "banner"

    def __init__(self, *, concurrency: int = 256):
        self.controller = AimdController(
            concurrency, min_limit=AIMD_MIN_CONCURRENCY
        )
        self.round_id = 0
        self.timestamp = 0
        self._quarantine: list[QuarantineRecord] = []
        #: Body verdicts by :attr:`FetchResult.body_digest`.
        self._verdicts = RoundMemo()
        #: Units of work run through :meth:`map` or accounted by
        #: :meth:`settle` (lifetime counter).
        self.tasks_run = 0
        #: Deadline kills per stage label.
        self.deadline_kills: Counter[str] = Counter()
        #: Exceptions trapped per stage label.
        self.trapped: Counter[str] = Counter()
        #: Quarantine records produced (lifetime counter).
        self.quarantined_total = 0
        tel = _telemetry.get()
        self._m_verdicts = tel.counter(
            "repro_guard_verdicts_total",
            "Guard inspection verdicts by stage and verdict",
            labels=("stage", "verdict"),
        )
        self._m_quarantine = tel.counter(
            "repro_quarantine_total",
            "Dead-letter quarantine records produced, by stage",
            labels=("stage",),
        )
        self._m_guard_events = tel.counter(
            "repro_guard_events_total",
            "Runtime guard interventions (deadline kills, trapped "
            "exceptions) by stage",
            labels=("stage", "event"),
        )

    # ------------------------------------------------------------------
    # round context

    def start_round(self, round_id: int, timestamp: int) -> None:
        """Stamp subsequent quarantine records with this round, and
        start a generation of the body-verdict memo."""
        self.round_id = round_id
        self.timestamp = timestamp
        self._verdicts.new_round()

    # ------------------------------------------------------------------
    # supervised work queue (fetch stage)

    async def map(
        self,
        items: Sequence[ItemT],
        worker: Callable[[ItemT], Awaitable[ResultT]],
        *,
        stage: str,
        deadline: float,
        is_failure: Callable[[ResultT], bool] | None = None,
        fallback: Callable[[ItemT, BaseException], ResultT],
    ) -> list[ResultT]:
        """Run *worker* over *items* through the bounded work queue.

        Results come back in input order.  Each unit runs under
        *deadline* seconds of wall clock; a blown deadline or any
        trapped exception is converted to ``fallback(item, exc)`` so the
        caller always receives one result per item.  *is_failure*
        classifies ordinary results for the AIMD window (e.g. a
        ``FetchResult`` that records a transport error).
        """
        total = len(items)
        if total == 0:
            return []
        results: list[ResultT | None] = [None] * total
        workers_n = max(1, min(self.controller.max_limit, total))
        queue: asyncio.Queue = asyncio.Queue(maxsize=2 * workers_n)

        async def feed() -> None:
            for entry in enumerate(items):
                await queue.put(entry)
            for _ in range(workers_n):
                await queue.put(None)

        async def drain() -> None:
            while True:
                entry = await queue.get()
                if entry is None:
                    return
                index, item = entry
                results[index] = await self._run_one(
                    item, worker, stage=stage, deadline=deadline,
                    is_failure=is_failure, fallback=fallback,
                )

        feeder = asyncio.create_task(feed())
        try:
            await asyncio.gather(*(drain() for _ in range(workers_n)))
            await feeder
        finally:
            if not feeder.done():
                feeder.cancel()
        return results  # type: ignore[return-value]

    async def _run_one(
        self,
        item: ItemT,
        worker: Callable[[ItemT], Awaitable[ResultT]],
        *,
        stage: str,
        deadline: float,
        is_failure: Callable[[ResultT], bool] | None,
        fallback: Callable[[ItemT, BaseException], ResultT],
    ) -> ResultT:
        await self.controller.acquire()
        self.tasks_run += 1
        ok = True
        try:
            result = await asyncio.wait_for(worker(item), deadline)
            if is_failure is not None and is_failure(result):
                ok = False
        except asyncio.TimeoutError:
            ok = False
            self.deadline_kills[stage] += 1
            self._m_guard_events.labels(
                stage=stage, event="deadline_kill"
            ).inc()
            result = fallback(item, StageDeadlineExceeded(
                f"{stage} stage exceeded its {deadline:g}s deadline"
            ))
        except Exception as exc:  # poison-proof by design
            ok = False
            result = self.trap(stage, item, exc, fallback)
        finally:
            await self.controller.release(ok)
        return result

    def trap(
        self,
        stage: str,
        item: ItemT,
        exc: Exception,
        fallback: Callable[[ItemT, BaseException], ResultT],
    ) -> ResultT:
        """Count one exception that escaped a unit of work and turn it
        into ``fallback(item, exc)`` — :meth:`map`'s trap, also used by
        the batch paths for an exception in one item's slot."""
        self.trapped[stage] += 1
        self._m_guard_events.labels(stage=stage, event="trapped").inc()
        return fallback(item, exc)

    def settle(self, oks: Sequence[bool]) -> None:
        """Account for units of work a batch call ran outside
        :meth:`map`: each counts as a task run and feeds its outcome to
        the AIMD window, in input order."""
        self.tasks_run += len(oks)
        for ok in oks:
            self.controller.record(ok)

    # ------------------------------------------------------------------
    # hostile-content inspection

    def inspect(self, fetch: FetchResult) -> GuardVerdict:
        """Cheap hostility checks on a fetched page.

        All checks are linear scans — the inspector must never itself
        be the thing a poison page hangs.  The header-bomb check runs
        per fetch; the body's verdict is memoised under
        :attr:`FetchResult.body_digest`, like its features.
        """
        if len(fetch.headers) > MAX_RESPONSE_HEADERS:
            return GuardVerdict.HEADER_BOMB
        if not fetch.body:
            return GuardVerdict.OK
        key = fetch.body_digest
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._inspect_body(fetch.body)
            self._verdicts.put(key, verdict)
        return verdict

    def _inspect_body(self, body: str) -> GuardVerdict:
        if body.count("\x00") > _MAX_NULL_BYTES:
            return GuardVerdict.BINARY_GARBAGE
        if self._title_length(body) > _MAX_TITLE_BYTES:
            return GuardVerdict.TITLE_BOMB
        # "</" cannot overlap itself, so str.count is the exact count.
        opens = len(_OPEN_TAG_RE.findall(body))
        closes = body.count("</")
        if opens - closes > _MAX_UNCLOSED_TAGS:
            return GuardVerdict.MARKUP_BOMB
        return GuardVerdict.OK

    @staticmethod
    def _title_length(body: str) -> int:
        """Bytes of ``<title>`` content, counting to end-of-document
        when the tag is unterminated (the usual bomb shape)."""
        open_match = _TITLE_OPEN_RE.search(body)
        if open_match is None:
            return 0
        start = body.find(">", open_match.end())
        start = open_match.end() if start == -1 else start + 1
        close_match = _TITLE_CLOSE_RE.search(body, start)
        end = len(body) if close_match is None else close_match.start()
        return max(0, end - start)

    # ------------------------------------------------------------------
    # supervised extraction (extract stage)

    def extract_features(
        self,
        extractor: FeatureExtractor,
        fetch: FetchResult,
        *,
        sink: list[QuarantineRecord] | None = None,
    ) -> PageFeatures:
        """Run ``extractor.extract(fetch)`` under the guard.

        Never raises: a trapped exception yields sentinel features
        (everything unknown, length preserved) plus a quarantine record;
        hostile content yields best-effort features *and* a quarantine
        record, so the page can be replayed after an extractor fix.
        With *sink*, quarantine records go to that per-shard buffer
        instead of the supervisor-wide one (the streaming pipeline's
        shard-attribution path).
        """
        body = fetch.body or ""
        verdict = self.inspect(fetch)
        self._m_verdicts.labels(
            stage=self.EXTRACT, verdict=verdict.value
        ).inc()
        try:
            features = extractor.extract(fetch)
        except Exception as exc:  # poison-proof by design
            self.trapped[self.EXTRACT] += 1
            self.quarantine(
                ip=fetch.ip, stage=self.EXTRACT,
                verdict=GuardVerdict.TASK_ERROR, exc=exc, payload=body,
                sink=sink,
            )
            return _sentinel_features(body)
        if verdict is not GuardVerdict.OK:
            self.quarantine(
                ip=fetch.ip, stage=self.EXTRACT, verdict=verdict,
                payload=body, sink=sink,
            )
        return features

    # ------------------------------------------------------------------
    # dead-letter quarantine

    def quarantine(
        self,
        *,
        ip: int,
        stage: str,
        verdict: GuardVerdict,
        exc: BaseException | None = None,
        payload: str = "",
        sink: list[QuarantineRecord] | None = None,
    ) -> QuarantineRecord:
        """Buffer one dead-letter record for the current round.

        With *sink*, the record lands in that caller-owned buffer
        (pipeline mode journals quarantine per shard); otherwise it
        joins the supervisor-wide buffer behind
        :meth:`drain_quarantine`.
        """
        record = QuarantineRecord(
            ip=ip,
            round_id=self.round_id,
            timestamp=self.timestamp,
            stage=stage,
            verdict=verdict.value,
            error_class=type(exc).__name__ if exc is not None else None,
            error=_truncate(str(exc), 200) if exc is not None else None,
            payload=_truncate(payload, QUARANTINE_PAYLOAD_BYTES),
        )
        (self._quarantine if sink is None else sink).append(record)
        self.quarantined_total += 1
        self._m_quarantine.labels(stage=stage).inc()
        return record

    def drain_quarantine(self) -> list[QuarantineRecord]:
        """Hand the buffered dead letters to the caller (the platform
        journals them with the shard that produced them)."""
        drained, self._quarantine = self._quarantine, []
        return drained

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Supervision telemetry — what the chaos suite asserts on."""
        return {
            "tasks_run": self.tasks_run,
            "deadline_kills_fetch": self.deadline_kills[self.FETCH],
            "deadline_kills_banner": self.deadline_kills[self.BANNER],
            "trapped_fetch": self.trapped[self.FETCH],
            "trapped_extract": self.trapped[self.EXTRACT],
            "trapped_banner": self.trapped[self.BANNER],
            "quarantined": self.quarantined_total,
            "concurrency_limit": self.controller.limit,
            "concurrency_min_observed": self.controller.min_observed,
            "concurrency_peak_in_flight": self.controller.peak_in_flight,
            "aimd_decreases": self.controller.decreases,
            "aimd_increases": self.controller.increases,
        }
