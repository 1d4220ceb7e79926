"""The WhoWas platform orchestrator.

Wires together the pipeline of Figure 1: scanner → fetcher → feature
generator → database.  One :meth:`WhoWas.run_round` call performs one
complete round of scanning over the target list, and the store exposes
the programmatic lookup interface analyses are built on.

Rounds are processed in **shards** of ``PlatformConfig.shard_size``
targets, each committed to the store as it completes (the journaled
protocol of :class:`~repro.core.store.StoreBackend`, regardless of
which engine — sqlite or columnar — backs it).  A crash or a
cooperative abort (``abort_event``) therefore loses at most one shard
of work; the round stays ``in_progress`` in the store and a later call
with ``resume_round_id`` finishes exactly the shards that are missing.
Round IDs are durable: they continue from ``max(round_id) + 1`` in the
store rather than resetting to 1 on process start.

The shard stages run as a streaming pipeline
(:mod:`repro.core.pipeline`): shard *N+1* scans while *N* fetches and
*N−1* extracts, and a writer stage commits each completed shard off the
hot path — in this process, or in each worker of a
:class:`~repro.core.workers.WorkerSupervisor` pool when
``workers.count > 1``; the round lifecycle around them is the same.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import PlatformConfig
from .features import FeatureExtractor
from .fetcher import Fetcher
from .guard import (
    FETCH_DEADLINE,
    GuardVerdict,
    StageDeadlineExceeded,
    Supervisor,
)
from .pipeline import RoundPipeline, ShardWork
from .records import (
    PIPELINE_STATS_META_PREFIX,
    FetchResult,
    FetchStatus,
    PipelineStats,
    Port,
    ProbeOutcome,
    ProbeStatus,
    QuarantineRecord,
    RoundRecord,
)
from .scanner import Scanner
from .store import MeasurementStore, RoundInfo, ShardPayload, StoreBackend
from .transport import Transport, TransportError
from .workers import WorkerSupervisor
from . import telemetry as _telemetry

__all__ = ["RoundSummary", "RoundInterrupted", "WhoWas"]

#: Per-round error budget: a round whose share of network operations
#: (probes + page GETs) failing with a *classified* transport error
#: exceeds this is marked ``degraded`` in its
#: :class:`~repro.core.store.RoundInfo`.  The round still completes and
#: persists; analyses can discount it.
ROUND_ERROR_BUDGET = 0.5


class RoundInterrupted(Exception):
    """A round stopped cooperatively after checkpointing its current
    shard; the store holds a resumable partial round."""

    def __init__(
        self, round_id: int, timestamp: int,
        shards_done: int, shards_total: int,
    ):
        self.round_id = round_id
        self.timestamp = timestamp
        self.shards_done = shards_done
        self.shards_total = shards_total
        super().__init__(
            f"round {round_id} (day {timestamp}) interrupted after "
            f"{shards_done}/{shards_total} shards; resumable"
        )


@dataclass(frozen=True)
class RoundSummary:
    """Aggregate results of one round (convenience for callers)."""

    info: RoundInfo
    responsive: int
    available: int
    fetched: int
    #: Classified transport errors observed this round (probes + GETs).
    errors: int = 0
    #: Dead-letter entries the supervision layer wrote this round.
    quarantined: int = 0
    #: Per-stage pipeline telemetry for the run that produced the
    #: round (None for summaries rebuilt from the store alone).
    pipeline: PipelineStats | None = None

    @property
    def round_id(self) -> int:
        return self.info.round_id

    @property
    def degraded(self) -> bool:
        """True when this round blew the platform's error budget."""
        return self.info.degraded


@dataclass(frozen=True)
class _OpenRound:
    """A round between :meth:`WhoWas._begin_round` and
    :meth:`WhoWas._finish_round`."""

    round_id: int
    timestamp: int
    started: float          # perf_counter() before begin_round
    shards_total: int
    #: ``(shard_index, targets)`` of every shard not yet committed.
    remaining: list[tuple[int, Sequence[int]]]


class WhoWas:
    """The measurement platform: repeatedly scans a target list.

    Parameters
    ----------
    transport:
        Network implementation (real sockets or the cloud simulator).
    store:
        Round database; defaults to an in-memory store.  Round IDs
        continue from the store's high-water mark, so reopening a
        campaign database never reuses an ID.
    config:
        Scanner/fetcher parameters; defaults follow the paper.
    transport_factory:
        Picklable ``factory(timestamp) -> Transport`` that rebuilds the
        network from parameters alone; required when
        ``config.workers.count > 1`` (each spawned partition worker
        builds its own transport from it).
    proc_chaos:
        Process-level fault plan for ``workers.count > 1`` rounds (chaos
        tier only).
    """

    def __init__(
        self,
        transport: Transport,
        store: StoreBackend | None = None,
        config: PlatformConfig | None = None,
        *,
        transport_factory=None,
        proc_chaos=None,
    ):
        self.config = config or PlatformConfig()
        # Activate telemetry before any instrumented component caches
        # its metric handles (spawned partition workers light up here
        # too, from the TelemetryConfig pickled inside their config).
        _telemetry.activate_from(self.config.telemetry)
        self.transport = transport
        self.transport_factory = transport_factory
        self.proc_chaos = proc_chaos
        self.store = store or MeasurementStore()
        self.scanner = Scanner(
            transport, self.config.scan, blacklist=self.config.blacklist
        )
        # One supervisor spans fetch and extract so both stages feed the
        # same AIMD controller and dead-letter quarantine.
        self.guard = Supervisor(concurrency=self.config.fetch.workers)
        self.fetcher = Fetcher(transport, self.config.fetch, guard=self.guard)
        self.features = FeatureExtractor()
        self._next_round_id = self.store.max_round_id() + 1
        #: Partition index when running as a spawned worker (span
        #: attribution only); None in the coordinating process.
        self._worker_index: int | None = None
        # run_round's reusable event loop (created on first use); a
        # fresh loop per round would tear down and rebuild every
        # loop-bound primitive each round.
        self._loop: asyncio.AbstractEventLoop | None = None

    async def run_round_async(
        self,
        targets: Sequence[int],
        timestamp: int,
        *,
        abort_event: asyncio.Event | None = None,
        resume_round_id: int | None = None,
    ) -> RoundSummary:
        """Perform one round: probe every target, fetch pages from IPs
        with open web ports, extract features, persist the results.

        The round always completes: classified transport failures are
        recorded on the per-IP records, and a round whose failure ratio
        exceeds :data:`ROUND_ERROR_BUDGET` is marked
        *degraded* in its :class:`RoundInfo` instead of raising.

        Targets are processed in shards checkpointed as they commit.
        When *abort_event* is set, the in-flight shards finish and the
        round is left ``in_progress`` behind a :class:`RoundInterrupted`.
        Passing *resume_round_id* re-enters such a round: committed
        shards are skipped, so no row is ever duplicated.
        """
        if self.config.workers.count > 1:
            raise RuntimeError(
                "multi-process rounds (workers.count > 1) must go through "
                "the synchronous run_round(), which owns the worker pool"
            )
        opened = self._begin_round(targets, timestamp, resume_round_id)
        self._start_round(opened.round_id, timestamp)
        work_items = (
            ShardWork(index=index, targets=shard)
            for index, shard in opened.remaining
        )
        stats, aborted = await self._run_shards(
            work_items, opened.round_id, abort_event
        )
        return self._finish_round(opened, stats, aborted=aborted)

    # ------------------------------------------------------------------
    # the round lifecycle (shared by in-process and --workers N rounds)

    def _begin_round(
        self,
        targets: Sequence[int],
        timestamp: int,
        resume_round_id: int | None,
    ) -> _OpenRound:
        """Open (or re-enter) the round in the store and split *targets*
        into shards; committed shards of a resumed round are skipped."""
        started = time.perf_counter()
        round_id = (
            self._next_round_id if resume_round_id is None
            else resume_round_id
        )
        info = self.store.begin_round(
            round_id, timestamp, len(targets),
            shard_size=self.config.shard_size,
        )
        self._next_round_id = max(self._next_round_id, round_id + 1)
        # Shard indices must line up with the committed ones, so a
        # resumed round keeps the shard size it started with.
        shard_size = info.shard_size or self.config.shard_size
        shards = [
            targets[start:start + shard_size]
            for start in range(0, len(targets), shard_size)
        ] or [targets]
        done = self.store.completed_shards(round_id)
        return _OpenRound(
            round_id=round_id,
            timestamp=timestamp,
            started=started,
            shards_total=len(shards),
            remaining=[
                (index, shard) for index, shard in enumerate(shards)
                if index not in done
            ],
        )

    def _start_round(self, round_id: int, timestamp: int) -> None:
        """Point this process's transport, guard and extractor memo at
        the round (runs wherever shards execute: here, or in each
        worker)."""
        round_hook = getattr(self.transport, "on_round_start", None)
        if callable(round_hook):
            round_hook(round_id)
        self.guard.start_round(round_id, timestamp)
        self.features.new_round()

    def _finish_round(
        self,
        opened: _OpenRound,
        stats: PipelineStats,
        *,
        aborted: bool,
        forced_degraded: bool = False,
    ) -> RoundSummary:
        """Apply the error budget, finalize, persist the run's pipeline
        telemetry and summarise; an aborted round stays ``in_progress``
        behind :class:`RoundInterrupted`."""
        round_id = opened.round_id
        if aborted:
            raise RoundInterrupted(
                round_id, opened.timestamp,
                len(self.store.completed_shards(round_id)),
                opened.shards_total,
            )
        errors, operations = self.store.shard_stats(round_id)
        degraded = forced_degraded or (
            operations > 0 and errors / operations > ROUND_ERROR_BUDGET
        )
        info = self.store.finalize_round(
            round_id, degraded=degraded, error_count=errors,
            duration_seconds=time.perf_counter() - opened.started,
        )
        self._note_round_finalized(info)
        # Persist the run's pipeline telemetry so `repro stats` can
        # show it after the process is gone.
        self.store.set_meta(
            f"{PIPELINE_STATS_META_PREFIX}{round_id}",
            json.dumps(stats.to_dict(), sort_keys=True),
        )
        round_stats = self.store.round_stats(round_id)
        return RoundSummary(
            info=info,
            responsive=round_stats["responsive"],
            available=round_stats["available"],
            fetched=round_stats["fetched"],
            errors=errors,
            quarantined=self.store.quarantine_count(round_id),
            pipeline=stats,
        )

    @staticmethod
    def _note_round_finalized(info: RoundInfo) -> None:
        tel = _telemetry.get()
        tel.counter(
            "repro_rounds_total", "Rounds finalized, by status",
            labels=("status",),
        ).labels(status=info.status).inc()
        tel.histogram(
            "repro_round_seconds", "Wall-clock per finalized round",
        ).observe(info.duration_seconds)

    # ------------------------------------------------------------------
    # executing shards: in this process, or on a worker pool

    async def run_partition_async(
        self,
        work_items: Iterable[ShardWork],
        *,
        round_id: int,
        timestamp: int,
        worker: int | None = None,
    ) -> PipelineStats:
        """Run a subset of a round's shards into this platform's store
        — the partition-worker entry point (:mod:`repro.core.workers`).
        The caller owns the round lifecycle: ``begin_round`` must
        already have run against this platform's store, and nothing is
        finalized here."""
        self._worker_index = worker
        self._start_round(round_id, timestamp)
        stats, _ = await self._run_shards(work_items, round_id, None)
        return stats

    async def _run_shards(
        self,
        work_items: Iterable[ShardWork],
        round_id: int,
        abort_event: asyncio.Event | None,
    ) -> tuple[PipelineStats, bool]:
        """Stream the shards through :class:`RoundPipeline`; returns
        the run's stats and whether *abort_event* cut it short."""

        async def write(work: ShardWork) -> int:
            payload = ShardPayload(
                work.index, tuple(work.records),
                errors=work.errors, operations=work.operations,
                quarantine=tuple(work.quarantine),
            )
            # Off the event loop, so sqlite's fsync never blocks the
            # other stages (the store serialises access internally).
            return await asyncio.to_thread(
                self.store.write_shards, round_id, [payload]
            )

        pipeline = RoundPipeline(
            scan=self._scan_shard,
            fetch=self._fetch_shard,
            extract=self._extract_shard,
            write=write,
            controller=self.guard.controller,
            abort_event=abort_event,
            round_id=round_id,
            worker=self._worker_index,
        )
        stats = await pipeline.run(work_items)
        return stats, pipeline.aborted

    def _run_on_workers(
        self, opened: _OpenRound, abort_event: asyncio.Event | None
    ):
        """``workers.count > 1``: the round's remaining shards execute
        on spawned workers under a
        :class:`~repro.core.workers.WorkerSupervisor` and merge back
        into the canonical journal; returns its report."""
        writer_before = self.store.writer_stats_snapshot()
        supervisor = WorkerSupervisor(
            self.store, self.config, self.transport_factory,
            chaos=self.proc_chaos,
        )
        report = supervisor.run(
            opened.remaining, round_id=opened.round_id,
            timestamp=opened.timestamp, abort_event=abort_event,
        )
        # The canonical store's merge commits are the round's writes.
        stats = report.stats
        writer_after = self.store.writer_stats_snapshot()
        stats.writer_flushes = (
            writer_after["flush_count"] - writer_before["flush_count"]
        )
        stats.writer_flush_seconds = (
            writer_after["flush_seconds"] - writer_before["flush_seconds"]
        )
        stats.writer_max_flush_seconds = writer_after["max_flush_seconds"]
        stats.writer_max_batch = 1
        stats.wall_seconds = time.perf_counter() - opened.started
        return report

    # ------------------------------------------------------------------
    # shard stages

    async def _scan_shard(self, work: ShardWork) -> int:
        """Probe the shard's targets; charges probe errors/operations
        to the shard.  Counter diffs are safe under overlap because the
        scan stage processes one shard at a time and no other stage
        touches the scanner."""
        before = self.scanner.stats_snapshot()
        work.outcomes = list(await self.scanner.scan(work.targets))
        after = self.scanner.stats_snapshot()
        work.errors += after["probe_errors"] - before["probe_errors"]
        work.operations += after["probes_sent"] - before["probes_sent"]
        return len(work.targets)

    async def _fetch_shard(self, work: ShardWork) -> int:
        """Fetch pages (and SSH banners) for the shard's responsive
        IPs; dead letters go to the shard's own quarantine sink."""
        to_fetch = [
            o for o in work.outcomes if o.responsive and o.wants_fetch
        ]
        before = self.fetcher.stats_snapshot()
        work.fetch_results = await self.fetcher.fetch(
            to_fetch, quarantine=work.quarantine
        )
        after = self.fetcher.stats_snapshot()
        if self.config.grab_ssh_banners:
            work.banners = await self._grab_banners(
                work.outcomes, quarantine=work.quarantine
            )
        work.errors += after["fetch_errors"] - before["fetch_errors"]
        work.operations += len(to_fetch)
        return len(to_fetch)

    async def _extract_shard(self, work: ShardWork) -> int:
        """Build the shard's records, extracting page features under
        the supervision layer."""
        fetch_by_ip = {result.ip: result for result in work.fetch_results}
        records: list[RoundRecord] = []
        for outcome in work.outcomes:
            if outcome.status is not ProbeStatus.RESPONSIVE:
                continue
            fetch = fetch_by_ip.get(
                outcome.ip,
                FetchResult(ip=outcome.ip, status=FetchStatus.NOT_ATTEMPTED),
            )
            features = None
            if fetch.body:
                # Guarded extraction: a poison page yields sentinel
                # features plus a quarantine entry, never a crash.
                features = self.guard.extract_features(
                    self.features, fetch, sink=work.quarantine
                )
            records.append(RoundRecord(
                ip=outcome.ip,
                round_id=self.guard.round_id,
                timestamp=self.guard.timestamp,
                probe=outcome,
                fetch=fetch,
                features=features,
                ssh_banner=work.banners.get(outcome.ip),
            ))
        work.records = records
        return len(records)

    # ------------------------------------------------------------------

    def run_round(
        self,
        targets: Sequence[int],
        timestamp: int,
        *,
        abort_event: asyncio.Event | None = None,
        resume_round_id: int | None = None,
    ) -> RoundSummary:
        """Synchronous wrapper around :meth:`run_round_async`.

        Reuses one event loop across rounds (``asyncio.run`` per round
        would rebuild every loop-bound primitive each time); call
        :meth:`close` — or use the platform as a context manager — to
        release it.

        With ``config.workers.count > 1`` the round's shards instead
        execute on spawned workers and merge back through the
        checksum-verified journal protocol — same lifecycle,
        byte-identical results, supervised execution.
        """
        if self.config.workers.count > 1:
            if self.transport_factory is None:
                raise ValueError(
                    "workers.count > 1 requires a picklable "
                    "transport_factory"
                )
            opened = self._begin_round(targets, timestamp, resume_round_id)
            report = self._run_on_workers(opened, abort_event)
            return self._finish_round(
                opened, report.stats, aborted=report.aborted,
                forced_degraded=report.forced_degraded,
            )
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise RuntimeError(
                "run_round called from a running event loop; "
                "await run_round_async instead"
            )
        if self._loop is None or self._loop.is_closed():
            self._loop = asyncio.new_event_loop()
        return self._loop.run_until_complete(self.run_round_async(
            targets, timestamp,
            abort_event=abort_event, resume_round_id=resume_round_id,
        ))

    def close(self) -> None:
        """Release the reusable event loop (idempotent)."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.close()
        self._loop = None

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    async def _grab_banners(
        self,
        outcomes: Sequence[ProbeOutcome],
        *,
        quarantine: list[QuarantineRecord],
    ) -> dict[int, str]:
        """Read SSH banners from responsive IPs with port 22 open.

        A transport with ``banner_many``
        (:class:`~repro.core.transport.BatchGet`) reads them all in one
        call.  Otherwise they run through the supervisor's bounded work
        queue under the fetch deadline, so a hung banner read is killed
        and quarantined instead of stalling the round.  Either way an
        exception other than a classified transport error is trapped
        and quarantined."""
        targets = [
            o.ip for o in outcomes
            if o.responsive and Port.SSH in o.open_ports
        ]
        timeout = self.config.scan.probe_timeout

        async def grab(ip: int) -> tuple[int, str | None]:
            try:
                return ip, await self.transport.banner(ip, 22, timeout)
            except TransportError:
                return ip, None

        def fallback(ip: int, exc: BaseException) -> tuple[int, None]:
            verdict = (
                GuardVerdict.STAGE_DEADLINE
                if isinstance(exc, StageDeadlineExceeded)
                else GuardVerdict.TASK_ERROR
            )
            self.guard.quarantine(
                ip=ip, stage=Supervisor.BANNER, verdict=verdict, exc=exc,
                sink=quarantine,
            )
            return ip, None

        banner_many = getattr(self.transport, "banner_many", None)
        if banner_many is not None:
            if not targets:
                return {}
            try:
                answers = await banner_many(
                    [(ip, 22) for ip in targets], timeout)
            except Exception as exc:  # the whole call failed: every slot
                answers = [exc] * len(targets)
            banners = {}
            oks = []
            for ip, answer in zip(targets, answers):
                ok = True
                if isinstance(answer, TransportError):
                    answer = None
                elif isinstance(answer, Exception):
                    _, answer = self.guard.trap(
                        Supervisor.BANNER, ip, answer, fallback)
                    ok = False
                if answer:
                    banners[ip] = answer
                oks.append(ok)
            self.guard.settle(oks)
            return banners
        results = await self.guard.map(
            targets,
            grab,
            stage=Supervisor.BANNER,
            deadline=FETCH_DEADLINE,
            fallback=fallback,
        )
        return {ip: banner for ip, banner in results if banner}

    def history(self, ip: int) -> list[RoundRecord]:
        """Lookup: history of status and content for an IP over time."""
        return self.store.history(ip)
