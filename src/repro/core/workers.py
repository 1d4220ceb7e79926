"""Multi-process round execution: partitioning, supervision, merge.

A round's shard sequence is split into contiguous **partitions**, each
assigned to a spawned worker process.  A worker is the ordinary
platform in miniature: it rebuilds its transport from the picklable
``transport_factory``, opens its own **partition journal** (a SQLite
sidecar of the campaign database), and runs the existing
:class:`~repro.core.pipeline.RoundPipeline` over its shards — every
resilience property of the single-process engine (journaled shards,
guard deadlines, quarantine) holds inside each worker unchanged.

The coordinator's :class:`WorkerSupervisor` owns the failure domain
*around* the workers:

* **Heartbeats** — each worker beats on a queue from inside its event
  loop, so a wedged loop (not just a dead process) goes silent.  A
  worker whose heartbeat age exceeds ``WorkerConfig.heartbeat_timeout``
  is SIGKILLed.
* **Reassignment** — a partition whose worker died, wedged, or left an
  incomplete/corrupt journal goes back on the queue with capped
  retry + jittered backoff.  A restarted partition reopens its journal
  and skips the shards that already committed.
* **Graceful degradation** — a partition that exhausts its retries
  shrinks the pool by one slot and runs inline in the coordinator as a
  last resort; the round is forced ``degraded`` through the existing
  error-budget path.
* **Checksum-verified merge** — completed journals are verified
  (every assigned shard present, every digest matching, every body
  re-hashed) and their stored row tuples merged into the canonical
  store through the same idempotent
  :meth:`~repro.core.store.StoreBackend.write_rows` protocol, in
  ascending shard order (so the merge also folds the canonical
  store's materialized read models, whichever engine backs it;
  per-partition *journals* are always sqlite files).  Stale journals left by a crashed coordinator
  are salvaged the same way before partitioning, so coordinator death
  is exactly as recoverable as worker death.

Because the simulated cloud is a pure function of ``(seed, day)`` and
all per-request mutable state is scoped per-IP, a round run with
``--workers N`` is byte-identical to an in-process round on the same
seed.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue as queue_module
import signal
import sqlite3
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from .backoff import backoff_delay
from .config import PlatformConfig
from .faults import ProcessChaosPlan, ProcFaultKind
from .pipeline import ShardWork
from .records import PipelineStats
from .store import (
    MeasurementStore,
    StoreBackend,
    bad_bodies,
    shard_checksum,
)
from . import telemetry as _telemetry

__all__ = [
    "PartitionSpec",
    "WorkerTask",
    "WorkerRoundReport",
    "WorkerSupervisor",
    "partition_shards",
    "partition_worker_main",
    "run_partition",
]

#: Multiprocessing start method.  Pinned to ``spawn`` so workers rebuild
#: their transport/config from pickled arguments instead of inheriting
#: interpreter state (fork would inherit live event-loop and sqlite
#: state and break determinism) — the only way per-partition determinism
#: holds identically on Linux and macOS.
_START_METHOD = "spawn"


@dataclass(frozen=True)
class PartitionSpec:
    """One contiguous block of a round's shards, assigned as a unit."""

    index: int
    #: Global shard indices (ascending, contiguous).
    shard_indices: tuple[int, ...]
    #: Target IPs per shard, parallel to :attr:`shard_indices`.
    targets: tuple[tuple[int, ...], ...]

    @property
    def shard_count(self) -> int:
        return len(self.shard_indices)


def partition_shards(
    shards: Sequence[tuple[int, tuple[int, ...]]],
    partitions: int,
) -> list[PartitionSpec]:
    """Split ``(shard_index, targets)`` pairs into at most *partitions*
    contiguous, near-equal blocks (the first ``len % partitions`` blocks
    take the extra shard).  Contiguity keeps each worker's shard walk in
    the same order an in-process round would use."""
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    count = min(partitions, len(shards))
    specs: list[PartitionSpec] = []
    base, extra = divmod(len(shards), count) if count else (0, 0)
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        block = shards[start:start + size]
        start += size
        specs.append(PartitionSpec(
            index=index,
            shard_indices=tuple(i for i, _ in block),
            targets=tuple(tuple(t) for _, t in block),
        ))
    return specs


@dataclass(frozen=True)
class WorkerTask:
    """Everything one partition execution needs, pickled to the spawned
    worker (spawn start method: nothing is inherited, so determinism
    cannot leak in through interpreter state)."""

    partition: PartitionSpec
    attempt: int
    round_id: int
    timestamp: int
    journal_path: str
    config: PlatformConfig
    #: Picklable callable ``factory(timestamp) -> Transport`` that
    #: rebuilds the worker's network (e.g. the simulated cloud advanced
    #: to the round's day) from parameters alone.
    transport_factory: Callable
    heartbeat_interval: float = 0.2
    #: Worker-side process chaos (KILL_MID_SHARD / FREEZE); None
    #: outside the chaos tier and always None for inline fallback runs.
    chaos: ProcessChaosPlan | None = None


def _inprocess_config(config: PlatformConfig) -> PlatformConfig:
    """The worker's platform config: same measurement semantics, worker
    pool disabled (a worker never recursively spawns workers)."""
    if config.workers.count <= 1:
        return config
    return replace(config, workers=replace(config.workers, count=0))


async def _run_partition_async(task: WorkerTask, emit) -> PipelineStats:
    """Run one partition's shards through a fresh platform against the
    partition journal, heartbeating from inside the event loop."""
    from .platform import WhoWas

    # Light telemetry up before the store caches its metric handles
    # (spawned workers start from a fresh interpreter).
    _telemetry.activate_from(task.config.telemetry)
    transport = task.transport_factory(task.timestamp)
    store = MeasurementStore(task.journal_path)
    try:
        platform = WhoWas(
            transport, store, config=_inprocess_config(task.config)
        )
        try:
            total = sum(len(t) for t in task.partition.targets)
            store.begin_round(
                task.round_id, task.timestamp, total,
                shard_size=task.config.shard_size,
            )
            done = store.completed_shards(task.round_id)
            rule = None
            if task.chaos is not None:
                rule = task.chaos.fault_for(
                    "worker", task.round_id, task.partition.index,
                    task.attempt,
                )

            def work_items():
                trigger = None
                if rule is not None:
                    trigger = min(
                        rule.shard_ordinal,
                        max(task.partition.shard_count - 1, 0),
                    )
                for ordinal, (index, targets) in enumerate(zip(
                    task.partition.shard_indices, task.partition.targets
                )):
                    if trigger is not None and ordinal == trigger:
                        if rule.kind is ProcFaultKind.KILL_MID_SHARD:
                            # Die with shards in flight: everything
                            # committed so far survives in the journal.
                            os.kill(os.getpid(), signal.SIGKILL)
                        elif rule.kind is ProcFaultKind.FREEZE:
                            # Block the event loop: heartbeats stop and
                            # the supervisor must SIGKILL us.
                            time.sleep(rule.freeze_seconds)
                    if index in done:
                        continue
                    yield ShardWork(index=index, targets=targets)

            async def beat():
                while True:
                    emit((
                        "heartbeat", task.partition.index, task.attempt,
                        len(store.completed_shards(task.round_id)),
                    ))
                    await asyncio.sleep(task.heartbeat_interval)

            beat_task = asyncio.create_task(beat())
            try:
                stats = await platform.run_partition_async(
                    work_items(), round_id=task.round_id,
                    timestamp=task.timestamp,
                    worker=task.partition.index,
                )
            finally:
                beat_task.cancel()
            return stats
        finally:
            platform.close()
    finally:
        # Close cleanly so the journal's WAL checkpoints into the main
        # file before the coordinator opens it.
        store.close()


def run_partition(task: WorkerTask, emit=lambda message: None) -> PipelineStats:
    """Execute one partition to completion (sync).  Shared by the
    spawned worker and the coordinator's inline fallback."""
    return asyncio.run(_run_partition_async(task, emit))


def partition_worker_main(task: WorkerTask, channel) -> None:
    """Spawn entry point for one partition execution."""
    try:
        stats = run_partition(task, channel.put)
    except BaseException as exc:  # noqa: BLE001 - report, then die nonzero
        channel.put((
            "failed", task.partition.index, task.attempt,
            f"{type(exc).__name__}: {exc}",
        ))
        channel.close()
        channel.join_thread()
        sys.exit(1)
    channel.put((
        "done", task.partition.index, task.attempt, stats.to_dict(),
    ))
    channel.close()
    channel.join_thread()


class _JournalRejected(Exception):
    """A partition journal failed verification (incomplete, torn, or
    checksum-mismatched) and must not be merged."""


@dataclass
class WorkerRoundReport:
    """What the supervisor hands back to the platform."""

    stats: PipelineStats
    #: True when any partition exhausted its retries (inline fallback
    #: ran) — forces the round degraded.
    forced_degraded: bool = False
    #: True when the abort event fired; committed shards are merged and
    #: the round stays ``in_progress``.
    aborted: bool = False
    merged_shards: int = 0
    merged_records: int = 0


@dataclass
class _Running:
    process: object
    spec: PartitionSpec
    attempt: int
    journal_path: str
    started: float
    last_beat: float
    shards_done: int = 0
    done_stats: dict | None = None
    failure: str | None = None


class WorkerSupervisor:
    """Partition scheduler + health monitor + journal merger for one
    round (see the module docstring for the full state machine)."""

    def __init__(
        self,
        store: StoreBackend,
        config: PlatformConfig,
        transport_factory: Callable,
        *,
        chaos: ProcessChaosPlan | None = None,
    ):
        self.store = store
        self.config = config
        self.workers = config.workers
        self.transport_factory = transport_factory
        self.chaos = chaos
        self._ctx = multiprocessing.get_context(_START_METHOD)
        tel = _telemetry.get()
        self._tel = tel
        self._m_events = tel.counter(
            "repro_worker_events_total",
            "Worker supervisor lifecycle events "
            "(spawn/heartbeat/kill/reassign/fallback/merge)",
            labels=("event",),
        )
        self._m_running = tel.gauge(
            "repro_workers_running", "Worker processes currently alive"
        )
        self._m_heartbeat_age = tel.gauge(
            "repro_worker_heartbeat_age_seconds",
            "Oldest heartbeat age across live workers",
        )
        # Same families the in-process pipeline feeds: worker processes
        # count stage progress in their own registries, so the
        # supervisor folds each merged partition's totals back in here
        # to keep the coordinator's /metrics endpoint meaningful.
        self._m_stage_shards = tel.counter(
            "repro_stage_shards_total", "Shards completed per stage",
            labels=("stage",),
        )
        self._m_stage_items = tel.counter(
            "repro_stage_items_total", "Items processed per stage",
            labels=("stage",),
        )
        self._m_records = tel.counter(
            "repro_records_written_total",
            "Round records written to the store",
        )

    # ------------------------------------------------------------------
    # journal plumbing

    def _journal_dir(self) -> Path:
        if self.store.path != ":memory:":
            directory = Path(f"{self.store.path}.partitions")
        else:
            directory = Path(tempfile.mkdtemp(prefix="repro-partitions-"))
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    @staticmethod
    def _journal_path(directory: Path, round_id: int, partition: int) -> str:
        return str(directory / f"r{round_id:05d}_p{partition:03d}.sqlite")

    @staticmethod
    def _remove_journal(path: str) -> None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(path + suffix)
            except FileNotFoundError:
                pass

    @staticmethod
    def _prune_journal_dir(directory: Path) -> None:
        """Drop the sidecar directory once nothing (journals, rejected
        post-mortems) lives in it any more."""
        try:
            directory.rmdir()
        except OSError:
            pass        # non-empty (quarantined journals) or already gone

    @staticmethod
    def _quarantine_journal(path: str, attempt: int) -> None:
        """Move a rejected journal aside (post-mortem) so the retry
        starts from a clean file."""
        try:
            os.replace(path, f"{path}.rejected-{attempt}")
        except FileNotFoundError:
            pass
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(path + suffix)
            except FileNotFoundError:
                pass

    def _merge_journal(
        self,
        path: str,
        round_id: int,
        report: WorkerRoundReport,
        *,
        expected: tuple[int, ...] | None = None,
    ) -> None:
        """Verify and merge one partition journal into the canonical
        store, ascending shard order.  With *expected* set, every one of
        those shard indices must be present and every checksum must
        match, or :class:`_JournalRejected` is raised and nothing more
        is merged (shards merged before the bad one are idempotently
        harmless).  Raises on unreadable/torn files too."""
        try:
            with MeasurementStore(path) as journal:
                entries = journal.shard_journal(round_id)
                present = {entry.shard_index for entry in entries}
                if expected is not None and not set(expected) <= present:
                    raise _JournalRejected(
                        f"journal {path} is missing shards "
                        f"{sorted(set(expected) - present)}"
                    )
                for entry in entries:
                    rows, bodies = journal.shard_rows(
                        round_id, entry.shard_index
                    )
                    if (
                        len(rows) != entry.record_count
                        or shard_checksum(rows) != entry.checksum
                        or bad_bodies(bodies)
                    ):
                        raise _JournalRejected(
                            f"journal {path} shard {entry.shard_index} "
                            "failed checksum verification"
                        )
                    committed = self.store.write_rows(
                        round_id, entry.shard_index, rows, bodies,
                        errors=entry.errors, operations=entry.operations,
                        quarantine=journal.shard_quarantine(
                            round_id, entry.shard_index
                        ),
                    )
                    if committed:
                        report.merged_shards += 1
                        report.merged_records += len(rows)
        except (sqlite3.Error, KeyError, ValueError) as exc:
            # Torn file, missing round row, or a round table sqlite can
            # no longer read — all equivalent to a lost partition.
            raise _JournalRejected(f"journal {path} unreadable: {exc}")
        report.stats.partitions_merged += 1
        self._m_events.labels(event="merge").inc()

    def _salvage_journals(
        self, directory: Path, round_id: int, report: WorkerRoundReport
    ) -> None:
        """Merge whatever shards stale journals (left by a crashed
        coordinator) committed, then clear them out; unreadable ones
        are set aside.  Runs before partitioning, so salvaged shards
        are never re-scanned."""
        for path in sorted(directory.glob(f"r{round_id:05d}_p*.sqlite")):
            try:
                self._merge_journal(str(path), round_id, report)
            except _JournalRejected:
                self._quarantine_journal(str(path), attempt=0)
            else:
                self._remove_journal(str(path))

    # ------------------------------------------------------------------
    # supervision

    def _spawn(
        self,
        spec: PartitionSpec,
        attempt: int,
        round_id: int,
        timestamp: int,
        journal_path: str,
        channel,
    ) -> _Running:
        task = WorkerTask(
            partition=spec, attempt=attempt, round_id=round_id,
            timestamp=timestamp, journal_path=journal_path,
            config=self.config, transport_factory=self.transport_factory,
            heartbeat_interval=self.workers.heartbeat_interval,
            chaos=self.chaos,
        )
        process = self._ctx.Process(
            target=partition_worker_main, args=(task, channel), daemon=True,
        )
        process.start()
        self._m_events.labels(event="spawn").inc()
        now = time.monotonic()
        return _Running(
            process=process, spec=spec, attempt=attempt,
            journal_path=journal_path, started=now, last_beat=now,
        )

    @staticmethod
    def _backoff_delay(
        workers, round_id: int, partition: int, attempt: int
    ) -> float:
        """Capped exponential backoff with deterministic jitter (the
        jitter only shapes timing, never data)."""
        return backoff_delay(
            attempt,
            base=workers.retry_backoff_base,
            cap=workers.retry_backoff_max,
            key=f"backoff:{round_id}:{partition}:{attempt}",
        )

    def _apply_journal_chaos(
        self, path: str, round_id: int, partition: int, attempt: int
    ) -> None:
        """Coordinator-side chaos: tear a completed journal before its
        verification, the way a host crash or disk fault would."""
        if self.chaos is None:
            return
        rule = self.chaos.fault_for("journal", round_id, partition, attempt)
        if rule is None or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        if rule.kind is ProcFaultKind.TRUNCATE_JOURNAL:
            with open(path, "r+b") as handle:
                handle.truncate(max(size // 3, 1))
        else:  # CORRUPT_JOURNAL: scribble over the btree pages
            with open(path, "r+b") as handle:
                handle.seek(min(1024, size))
                handle.write(b"\xde\xad\xbe\xef" * max(size // 8, 256))

    def run(
        self,
        shards: Sequence[tuple[int, tuple[int, ...]]],
        *,
        round_id: int,
        timestamp: int,
        abort_event: asyncio.Event | None = None,
    ) -> WorkerRoundReport:
        """Drive one round's remaining shards through the worker pool;
        returns once every partition has merged (or the abort fired)."""
        workers = self.workers
        stats = PipelineStats(mode="multiprocess")
        report = WorkerRoundReport(stats=stats)
        directory = self._journal_dir()

        # Crash-equivalent recovery: a dead coordinator is just a set
        # of journals nobody merged.
        self._salvage_journals(directory, round_id, report)
        done = self.store.completed_shards(round_id)
        remaining = [(i, t) for i, t in shards if i not in done]
        specs = partition_shards(remaining, workers.count)
        stats.worker_count = len(specs)
        if not specs:
            return report

        channel = self._ctx.Queue()
        # (spec, attempt, not-before) — failures append with backoff.
        pending: list[tuple[PartitionSpec, int, float]] = [
            (spec, 0, 0.0) for spec in specs
        ]
        running: dict[int, _Running] = {}
        verified: list[tuple[PartitionSpec, str]] = []
        fallback: list[PartitionSpec] = []
        slots = len(specs)

        def fail_partition(run: _Running, reason: str) -> None:
            nonlocal slots
            stats.worker_restarts += 1
            next_attempt = run.attempt + 1
            if next_attempt > workers.max_partition_retries:
                # Give up on process isolation for this partition:
                # shrink the pool and queue the inline fallback.
                slots = max(1, slots - 1)
                stats.partitions_failed += 1
                report.forced_degraded = True
                fallback.append(run.spec)
                self._m_events.labels(event="fallback").inc()
            else:
                stats.partition_reassignments += 1
                self._m_events.labels(event="reassign").inc()
                delay = self._backoff_delay(
                    workers, round_id, run.spec.index, run.attempt
                )
                pending.append(
                    (run.spec, next_attempt, time.monotonic() + delay)
                )

        def reap(run: _Running) -> None:
            """Handle one exited worker: verify its journal, then merge
            or reassign."""
            pindex = run.spec.index
            exitcode = run.process.exitcode
            self._apply_journal_chaos(
                run.journal_path, round_id, pindex, run.attempt
            )
            if exitcode == 0:
                try:
                    self._merge_journal(
                        run.journal_path, round_id, report,
                        expected=run.spec.shard_indices,
                    )
                except _JournalRejected:
                    self._quarantine_journal(run.journal_path, run.attempt)
                    fail_partition(run, "journal rejected")
                else:
                    verified.append((run.spec, run.journal_path))
                    if run.done_stats:
                        self._aggregate_stats(
                            stats, run.done_stats, partition=run.spec.index
                        )
            else:
                fail_partition(run, run.failure or f"exit code {exitcode}")

        try:
            while pending or running:
                if abort_event is not None and abort_event.is_set():
                    report.aborted = True
                    break
                now = time.monotonic()
                # Spawn into free slots (skipping backoff holds).
                for item in sorted(pending, key=lambda i: i[0].index):
                    if len(running) >= slots:
                        break
                    spec, attempt, ready_at = item
                    if ready_at > now or spec.index in running:
                        continue
                    pending.remove(item)
                    running[spec.index] = self._spawn(
                        spec, attempt, round_id, timestamp,
                        self._journal_path(directory, round_id, spec.index),
                        channel,
                    )
                self._m_running.set(len(running))
                self._drain_channel(channel, running, stats, workers)
                oldest_age = 0.0
                for pindex, run in list(running.items()):
                    if run.process.exitcode is not None:
                        run.process.join()
                        # One more drain so the exiting worker's final
                        # done/failed message is in hand before reaping.
                        self._drain_channel(channel, running, stats, workers)
                        del running[pindex]
                        reap(run)
                        continue
                    age = time.monotonic() - run.last_beat
                    oldest_age = max(oldest_age, age)
                    stats.max_heartbeat_age = max(
                        stats.max_heartbeat_age, age
                    )
                    if age > workers.heartbeat_timeout:
                        # Wedged (frozen loop, livelock): SIGKILL and
                        # reassign; committed shards survive in the
                        # journal for the retry to skip.
                        run.process.kill()
                        run.process.join()
                        del running[pindex]
                        self._m_events.labels(event="kill").inc()
                        fail_partition(run, f"heartbeat {age:.1f}s stale")
                self._m_heartbeat_age.set(oldest_age)
            if report.aborted:
                for run in running.values():
                    run.process.terminate()
                for run in running.values():
                    run.process.join()
                # Merge whatever the interrupted workers committed so a
                # resume re-scans as little as possible.
                for run in running.values():
                    try:
                        self._merge_journal(
                            run.journal_path, round_id, report
                        )
                    except _JournalRejected:
                        self._quarantine_journal(
                            run.journal_path, run.attempt
                        )
                    else:
                        self._remove_journal(run.journal_path)
                running.clear()
                self._prune_journal_dir(directory)
                return report
        finally:
            channel.close()
            channel.join_thread()

        # Last-resort inline execution of permanently-failed partitions
        # (no chaos — the coordinator must not kill itself).
        for spec in sorted(fallback, key=lambda s: s.index):
            journal_path = self._journal_path(
                directory, round_id, spec.index
            )
            task = WorkerTask(
                partition=spec,
                attempt=workers.max_partition_retries + 1,
                round_id=round_id, timestamp=timestamp,
                journal_path=journal_path, config=self.config,
                transport_factory=self.transport_factory,
                heartbeat_interval=workers.heartbeat_interval,
                chaos=None,
            )
            inline_stats = run_partition(task)
            self._merge_journal(
                journal_path, round_id, report,
                expected=spec.shard_indices,
            )
            verified.append((spec, journal_path))
            self._aggregate_stats(
                stats, inline_stats.to_dict(), partition=spec.index
            )

        for _, journal_path in verified:
            self._remove_journal(journal_path)
        self._prune_journal_dir(directory)
        stats.shards_written = report.merged_shards
        stats.records_written = report.merged_records
        return report

    def _drain_channel(self, channel, running, stats, workers) -> None:
        """Pull worker messages; the blocking first get is the loop's
        poll interval.  Messages from a superseded attempt (a killed
        worker's last gasps) are dropped."""
        try:
            message = channel.get(timeout=workers.poll_interval)
        except queue_module.Empty:
            return
        while True:
            kind, pindex, attempt = message[0], message[1], message[2]
            run = running.get(pindex)
            if run is not None and run.attempt == attempt:
                if kind == "heartbeat":
                    run.last_beat = time.monotonic()
                    run.shards_done = message[3]
                    self._m_events.labels(event="heartbeat").inc()
                elif kind == "done":
                    run.done_stats = message[3]
                elif kind == "failed":
                    run.failure = message[3]
            try:
                message = channel.get_nowait()
            except queue_module.Empty:
                return

    def _aggregate_stats(
        self, stats: PipelineStats, worker_dict: dict,
        *, partition: int | None = None,
    ) -> None:
        """Fold one worker's PipelineStats into the round's multiprocess
        stats: stage telemetry sums across workers (writer counters are
        deliberately excluded — the canonical store's merge commits are
        attributed by the platform instead).  With *partition* set, the
        worker's full per-stage view (including its journal "write"
        stage) is also kept under ``stats.partitions[str(partition)]``
        so ``repro stats`` can attribute the merged sum back to
        individual workers.  A reassigned partition's last successful
        attempt wins — earlier attempts never reach this method.

        The same totals feed the coordinator's live metric families:
        worker processes count stage progress in their own registries,
        so without this fold the parent's /metrics endpoint would show
        an idle pipeline during a multiprocess campaign."""
        worker_stats = PipelineStats.from_dict(worker_dict)
        for name, stage in worker_stats.stages.items():
            if name == "write":
                self._m_records.inc(stage.items)
                continue
            total = stats.stage(name)
            total.shards += stage.shards
            total.items += stage.items
            total.busy_seconds += stage.busy_seconds
            total.queue_peak = max(total.queue_peak, stage.queue_peak)
            total.backpressure_waits += stage.backpressure_waits
            self._m_stage_shards.labels(stage=name).inc(stage.shards)
            self._m_stage_items.labels(stage=name).inc(stage.items)
        if partition is not None:
            stats.partitions[str(partition)] = worker_stats.stages
