"""Streaming stage-parallel round pipeline.

Processing shards strictly one after another — scan shard *N*, fetch
it, extract it, commit it, then start shard *N+1* — idles every stage
while the others work.  This module runs the stages as concurrent
coroutines connected by bounded FIFO queues, so shard *N+1* scans while
*N* fetches and *N−1* extracts, and a dedicated store-writer stage
commits each completed shard, one transaction per shard, off the hot
path.

Invariants the pipeline preserves relative to that one-shard-at-a-time
loop (kept as a test oracle in ``tests/_fakes.py``):

* **Commit order.** Queues are FIFO and every stage consumes one shard
  at a time, so shards reach the writer — and therefore the store — in
  shard-index order, one commit each.
* **Crash equivalence.** When any stage fails on shard *k*, the
  pipeline stops feeding, lets shards *< k* already downstream drain
  through the writer, discards shards *> k*, and re-raises the first
  error.  The set of committed shards is exactly what the sequential
  loop would have committed before crashing on *k*.
* **Abort semantics.** A set ``abort_event`` stops the feeder; every
  shard already in flight drains and commits, then the platform raises
  :class:`~repro.core.platform.RoundInterrupted` with a resumable
  partial round.
* **Backpressure.** The scan→fetch queue's *effective* capacity is
  scaled by the supervisor's AIMD controller
  (``depth × limit / max_limit``), so a fetch-side error storm
  throttles scanning instead of piling up probed-but-unfetched shards.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterable, Sequence

from .records import PipelineStats
from . import telemetry as _telemetry

__all__ = ["ShardWork", "BoundedShardQueue", "RoundPipeline"]

#: End-of-stream marker passed through every queue exactly once.
_DONE = object()

#: Max shards buffered between scan and fetch.  This is also the AIMD
#: coupling point: the controller scales the *effective* depth by
#: ``limit / max_limit`` (see :class:`BoundedShardQueue`).
_SCAN_QUEUE_DEPTH = 2
#: Max shards buffered between fetch and extract.
_EXTRACT_QUEUE_DEPTH = 2
#: Max completed shards buffered ahead of the store writer.
_WRITE_QUEUE_DEPTH = 4


@dataclass
class ShardWork:
    """One shard's state as it moves through the stages.

    Each stage fills in its slice: scan produces ``outcomes``, fetch
    produces ``fetch_results`` (and SSH ``banners``), extract produces
    ``records`` plus the shard's dead-letter ``quarantine`` entries and
    its journaled ``errors``/``operations`` counts.
    """

    index: int
    targets: Sequence[int]
    outcomes: list = field(default_factory=list)
    fetch_results: list = field(default_factory=list)
    banners: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    quarantine: list = field(default_factory=list)
    errors: int = 0
    operations: int = 0


class BoundedShardQueue:
    """Bounded FIFO between two stages with a *dynamic* capacity.

    Plain ``asyncio.Queue`` has a fixed ``maxsize``; this queue instead
    recomputes its capacity on every ``put`` so an AIMD *limiter* (the
    supervisor's fetch-concurrency controller) can modulate how far the
    producer may run ahead: ``max(1, ceil(depth × limit / max_limit))``.
    Tracks occupancy peaks and producer blocking for telemetry.
    """

    def __init__(self, depth: int, *, limiter=None,
                 depth_gauge=None, wait_counter=None):
        self._depth = depth
        self._limiter = limiter
        self._items: deque = deque()
        self._cond = asyncio.Condition()
        #: Highest occupancy ever observed.
        self.peak = 0
        #: Number of ``put`` calls that had to wait for space.
        self.put_waits = 0
        # Live telemetry children (None while telemetry is disabled, so
        # the hot path pays one None-check per operation).
        self._depth_gauge = depth_gauge
        self._wait_counter = wait_counter

    def capacity(self) -> int:
        """Current effective capacity (AIMD-scaled when a limiter is
        attached; the control marker ending the stream is exempt)."""
        if self._limiter is None:
            return self._depth
        scaled = self._depth * self._limiter.limit / self._limiter.max_limit
        return max(1, math.ceil(scaled))

    async def put(self, item) -> None:
        async with self._cond:
            # _DONE is flow control, not work: it must never deadlock
            # behind a full queue.
            if item is not _DONE and len(self._items) >= self.capacity():
                self.put_waits += 1
                if self._wait_counter is not None:
                    self._wait_counter.inc()
                while len(self._items) >= self.capacity():
                    await self._cond.wait()
            self._items.append(item)
            if item is not _DONE:
                self.peak = max(self.peak, len(self._items))
            if self._depth_gauge is not None:
                self._depth_gauge.set(len(self._items))
            self._cond.notify_all()

    async def get(self):
        async with self._cond:
            while not self._items:
                await self._cond.wait()
            item = self._items.popleft()
            if self._depth_gauge is not None:
                self._depth_gauge.set(len(self._items))
            self._cond.notify_all()
            return item


#: A stage body: processes one :class:`ShardWork` in place and returns
#: the number of items (targets / fetches / records) it handled.
StageFn = Callable[[ShardWork], Awaitable[int]]
#: The writer body: commits one shard and returns how many the store
#: took (0 when it already held that shard index).
WriteFn = Callable[[ShardWork], Awaitable[int]]


class RoundPipeline:
    """Drives one round's shards through scan → fetch → extract →
    write as overlapping stages.

    The stage bodies are injected by the platform (they close over the
    scanner, fetcher, extractor and store), keeping this module free of
    measurement semantics: it owns only ordering, backpressure,
    failure/abort draining, and telemetry.
    """

    def __init__(
        self,
        *,
        scan: StageFn,
        fetch: StageFn,
        extract: StageFn,
        write: WriteFn,
        controller=None,
        abort_event: asyncio.Event | None = None,
        round_id: int | None = None,
        worker: int | None = None,
    ):
        self._scan_fn = scan
        self._fetch_fn = fetch
        self._extract_fn = extract
        self._write_fn = write
        self._abort_event = abort_event
        self.stats = PipelineStats(mode="overlapped")
        #: True when the feeder stopped early because of ``abort_event``.
        self.aborted = False
        self._error: BaseException | None = None
        #: Span attribution (round id; partition index under --workers).
        self.round_id = round_id
        self.worker = worker
        self._tel = _telemetry.get()
        # scan pulls from a depth-1 feed queue; the scan→fetch queue is
        # the AIMD coupling point (see BoundedShardQueue.capacity).
        self._feed_q = BoundedShardQueue(1)
        self._fetch_q = BoundedShardQueue(
            _SCAN_QUEUE_DEPTH, limiter=controller,
            **self._queue_metrics("scan_fetch", "scan"),
        )
        self._extract_q = BoundedShardQueue(
            _EXTRACT_QUEUE_DEPTH,
            **self._queue_metrics("fetch_extract", "fetch"),
        )
        self._write_q = BoundedShardQueue(
            _WRITE_QUEUE_DEPTH,
            **self._queue_metrics("extract_write", "extract"),
        )

    def _queue_metrics(self, queue_name: str, producer: str) -> dict:
        """Live depth gauge + backpressure counter for one inter-stage
        queue (both None while telemetry is disabled)."""
        if not self._tel.enabled:
            return {"depth_gauge": None, "wait_counter": None}
        return {
            "depth_gauge": self._tel.gauge(
                "repro_queue_depth",
                "Shards buffered in each inter-stage queue",
                labels=("queue",),
            ).labels(queue=queue_name),
            "wait_counter": self._tel.counter(
                "repro_backpressure_waits_total",
                "Producer stalls on a full output queue, by stage",
                labels=("stage",),
            ).labels(stage=producer),
        }

    async def run(self, work_items: Iterable[ShardWork]) -> PipelineStats:
        """Run the round; returns the populated stats.  Raises the
        first stage error after draining (see module docstring)."""
        started = time.perf_counter()
        tasks = [
            asyncio.create_task(self._feeder(work_items)),
            asyncio.create_task(
                self._stage("scan", self._feed_q, self._fetch_q,
                            self._scan_fn)
            ),
            asyncio.create_task(
                self._stage("fetch", self._fetch_q, self._extract_q,
                            self._fetch_fn)
            ),
            asyncio.create_task(
                self._stage("extract", self._extract_q, self._write_q,
                            self._extract_fn)
            ),
        ]
        writer = asyncio.create_task(self._writer(self._write_q))
        try:
            await writer
        finally:
            # On failure, upstream stages may be parked on a queue whose
            # consumer died; everything that must commit already has.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            # Queue telemetry is charged to the *producing* stage: a
            # stage's peak/waits describe its output queue.
            for name, queue in (
                ("scan", self._fetch_q),
                ("fetch", self._extract_q),
                ("extract", self._write_q),
            ):
                stage = self.stats.stage(name)
                stage.queue_peak = queue.peak
                stage.backpressure_waits = queue.put_waits
            self.stats.wall_seconds = time.perf_counter() - started
        if self._error is not None:
            raise self._error
        return self.stats

    # ------------------------------------------------------------------

    async def _feeder(self, work_items: Iterable[ShardWork]) -> None:
        for work in work_items:
            if self._error is not None:
                break
            if self._abort_event is not None and self._abort_event.is_set():
                self.aborted = True
                break
            await self._feed_q.put(work)
        await self._feed_q.put(_DONE)

    async def _stage(
        self,
        name: str,
        inq: BoundedShardQueue,
        outq: BoundedShardQueue,
        fn: StageFn,
    ) -> None:
        stats = self.stats.stage(name)
        tel = self._tel
        enabled = tel.enabled
        m_shards = tel.counter(
            "repro_stage_shards_total", "Shards processed per stage",
            labels=("stage",),
        ).labels(stage=name)
        m_items = tel.counter(
            "repro_stage_items_total",
            "Stage work items (targets/fetches/records) per stage",
            labels=("stage",),
        ).labels(stage=name)
        m_wait = tel.histogram(
            "repro_stage_wait_seconds",
            "Time a stage idled on its input queue per shard",
            labels=("stage",),
        ).labels(stage=name)
        while True:
            waited = time.perf_counter() if enabled else 0.0
            item = await inq.get()
            if enabled:
                m_wait.observe(time.perf_counter() - waited)
            if item is _DONE:
                await outq.put(_DONE)
                return
            # Note there is deliberately no early-exit on self._error
            # here: when stage S fails on shard k, shards < k already
            # past S must still drain and commit (crash equivalence),
            # while shards > k die in S's input queue
            # because S stopped consuming.
            begun = time.perf_counter()
            try:
                with tel.span(name, round_id=self.round_id,
                              shard=item.index, worker=self.worker):
                    items = await fn(item)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                stats.busy_seconds += time.perf_counter() - begun
                if self._error is None:
                    self._error = exc
                await outq.put(_DONE)
                return
            stats.busy_seconds += time.perf_counter() - begun
            stats.shards += 1
            stats.items += items
            m_shards.inc()
            m_items.inc(items)
            await outq.put(item)

    async def _writer(self, inq: BoundedShardQueue) -> None:
        stats = self.stats.stage("write")
        tel = self._tel
        m_shards = tel.counter(
            "repro_stage_shards_total", "Shards processed per stage",
            labels=("stage",),
        ).labels(stage="write")
        m_records = tel.counter(
            "repro_records_written_total",
            "Measurement records committed to the store",
        )
        while True:
            item = await inq.get()
            if item is _DONE:
                return
            begun = time.perf_counter()
            with tel.span("write", round_id=self.round_id,
                          shard=item.index, worker=self.worker):
                committed = await self._write_fn(item)
            elapsed = time.perf_counter() - begun
            records = len(item.records)
            stats.busy_seconds += elapsed
            stats.shards += committed
            stats.items += records
            m_shards.inc(committed)
            m_records.inc(records)
            self.stats.writer_flushes += 1
            self.stats.writer_flush_seconds += elapsed
            self.stats.writer_max_flush_seconds = max(
                self.stats.writer_max_flush_seconds, elapsed
            )
            self.stats.writer_max_batch = 1
            self.stats.shards_written += committed
            self.stats.records_written += records
