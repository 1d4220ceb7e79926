"""Supervised multi-process rounds: partitioning, chaos, merge, verify.

The contract under test is the module docstring of
``repro.core.workers``: a round run with ``--workers N`` must produce a
byte-identical database to an in-process run on the same seed — even
when workers are SIGKILLed mid-shard, freeze past their heartbeat
deadline, or hand back torn/corrupted partition journals.  The
checksummed shard journal (``repro verify``) is what makes those
guarantees checkable after the fact.
"""

from __future__ import annotations

import asyncio
import sqlite3
import threading
import time

import pytest

from repro.cli import main
from repro.core.config import PlatformConfig, WorkerConfig
from repro.core.faults import ProcFaultKind, proc_chaos_plan
from repro.core.platform import RoundInterrupted, WhoWas
from repro.core.records import PipelineStats
from repro.core.store import (
    ROUND_IN_PROGRESS,
    MeasurementStore,
    shard_checksum,
)
from repro.core.store.base import COLUMN_NAMES
from repro.core.workers import (
    WorkerRoundReport,
    WorkerSupervisor,
    WorkerTask,
    partition_shards,
    run_partition,
)
from repro.workloads import Campaign, SimTransportFactory, ec2_scenario
from test_recovery import SCENARIO_PARAMS, db_snapshot, small_config
from test_store import record

# The CLI-style parameter dict equivalent of SCENARIO_PARAMS — what a
# spawned worker rebuilds its scenario from.
SIM_PARAMS = dict(
    cloud="ec2",
    ips=SCENARIO_PARAMS["total_ips"],
    seed=SCENARIO_PARAMS["seed"],
    days=SCENARIO_PARAMS["duration_days"],
)

# Short heartbeats/backoffs so restart paths settle in test time.
FAST_WORKERS = dict(
    heartbeat_interval=0.05,
    heartbeat_timeout=5.0,
    poll_interval=0.02,
    retry_backoff_base=0.01,
    retry_backoff_max=0.05,
)


def mp_config(count: int = 2, **worker_overrides) -> PlatformConfig:
    kwargs = dict(FAST_WORKERS)
    kwargs.update(worker_overrides)
    return small_config(workers=WorkerConfig(count=count, **kwargs))


def run_mp_campaign(path: str, *, config=None, chaos=None) -> None:
    Campaign(
        ec2_scenario(**SCENARIO_PARAMS),
        store=MeasurementStore(path),
        config=config or mp_config(),
        transport_factory=SimTransportFactory(SIM_PARAMS),
        proc_chaos=chaos,
    ).run()


def build_platform(path: str, *, config=None, chaos=None, timestamp=0):
    """A WhoWas over the test scenario, ready for single-round runs."""
    scenario = ec2_scenario(**SCENARIO_PARAMS)
    scenario.simulation.advance_to(timestamp)
    store = MeasurementStore(path)
    platform = WhoWas(
        scenario.transport, store, config or mp_config(),
        transport_factory=SimTransportFactory(SIM_PARAMS),
        proc_chaos=chaos,
    )
    return platform, store, scenario.targets


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """One serial campaign; every equivalence test diffs against it."""
    path = str(tmp_path_factory.mktemp("ref") / "reference.sqlite")
    Campaign(
        ec2_scenario(**SCENARIO_PARAMS),
        store=MeasurementStore(path),
        config=small_config(),
    ).run()
    return path, db_snapshot(path)


# ----------------------------------------------------------------------
# partitioning (pure)


class TestPartitioning:
    SHARDS = [(i, tuple(range(i * 4, i * 4 + 4))) for i in range(10)]

    def test_even_split_preserves_order_and_contiguity(self):
        specs = partition_shards(self.SHARDS, 2)
        assert [s.index for s in specs] == [0, 1]
        assert specs[0].shard_indices == tuple(range(5))
        assert specs[1].shard_indices == tuple(range(5, 10))
        assert specs[0].targets[0] == (0, 1, 2, 3)

    def test_uneven_split_front_loads_the_extra(self):
        specs = partition_shards(self.SHARDS, 4)
        assert [s.shard_count for s in specs] == [3, 3, 2, 2]
        flat = [i for s in specs for i in s.shard_indices]
        assert flat == list(range(10))

    def test_more_partitions_than_shards_caps_at_shard_count(self):
        specs = partition_shards(self.SHARDS[:3], 8)
        assert len(specs) == 3
        assert all(s.shard_count == 1 for s in specs)

    def test_empty_and_invalid(self):
        assert partition_shards([], 4) == []
        with pytest.raises(ValueError):
            partition_shards(self.SHARDS, 0)


# ----------------------------------------------------------------------
# process chaos plan


class TestProcessChaosPlan:
    def test_deterministic_across_instances(self):
        a = proc_chaos_plan(3, rate=0.5)
        b = proc_chaos_plan(3, rate=0.5)
        draws = [
            (a.fault_for("worker", r, p, 0) is None)
            for r in range(1, 6) for p in range(4)
        ]
        assert draws == [
            (b.fault_for("worker", r, p, 0) is None)
            for r in range(1, 6) for p in range(4)
        ]
        assert not all(draws) and any(draws)   # rate actually bites

    def test_scope_filters(self):
        plan = proc_chaos_plan(
            1, kinds=(ProcFaultKind.KILL_MID_SHARD,),
            rounds={2}, partitions={0}, attempts={0},
        )
        rule = plan.fault_for("worker", 2, 0, 0)
        assert rule is not None
        assert rule.kind is ProcFaultKind.KILL_MID_SHARD
        assert plan.fault_for("worker", 1, 0, 0) is None   # other round
        assert plan.fault_for("worker", 2, 1, 0) is None   # other partition
        assert plan.fault_for("worker", 2, 0, 1) is None   # retry attempt
        # KILL is a worker-scope fault; the journal hook must not fire.
        assert plan.fault_for("journal", 2, 0, 0) is None

    def test_journal_kinds_only_fire_on_journal_scope(self):
        plan = proc_chaos_plan(1, kinds=(ProcFaultKind.CORRUPT_JOURNAL,))
        assert plan.fault_for("worker", 1, 0, 0) is None
        assert plan.fault_for("journal", 1, 0, 0) is not None


# ----------------------------------------------------------------------
# shard checksums + verify_round


class TestShardChecksums:
    def test_checksum_is_content_and_order_sensitive(self):
        rows = [record(1, 1, 0).row(), record(2, 1, 0).row()]
        assert shard_checksum(rows) == shard_checksum(list(rows))
        assert shard_checksum(rows) != shard_checksum(rows[::-1])
        title = COLUMN_NAMES.index("title")
        tampered = [rows[0][:title] + ("x",) + rows[0][title + 1:], rows[1]]
        assert shard_checksum(rows) != shard_checksum(tampered)

    def _round_db(self, tmp_path):
        path = str(tmp_path / "v.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, 4, shard_size=2)
        store.write_shard(1, 0, [record(1, 1, 0), record(2, 1, 0)])
        store.write_shard(1, 1, [record(3, 1, 0), record(4, 1, 0)])
        store.finalize_round(1)
        return path, store

    def test_clean_round_verifies(self, tmp_path):
        _, store = self._round_db(tmp_path)
        report = store.verify_round(1)
        assert report.ok
        assert report.verified == 2 and report.shards == 2
        assert "ok" in report.describe()

    def test_tampered_row_is_corrupt(self, tmp_path):
        path, store = self._round_db(tmp_path)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE round_00000 SET title = 'evil' WHERE ip = 3")
        conn.commit()
        conn.close()
        report = MeasurementStore(path).verify_round(1)
        assert not report.ok
        assert report.corrupt == [1]

    def test_deleted_row_is_corrupt(self, tmp_path):
        path, store = self._round_db(tmp_path)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("DELETE FROM round_00000 WHERE ip = 1")
        conn.commit()
        conn.close()
        report = MeasurementStore(path).verify_round(1)
        assert not report.ok
        assert report.corrupt == [0]

    def test_missing_journal_entry_is_detected(self, tmp_path):
        path, store = self._round_db(tmp_path)
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(
            "DELETE FROM round_shards WHERE round_id = 1 AND shard_index = 1"
        )
        conn.commit()
        conn.close()
        report = MeasurementStore(path).verify_round(1)
        assert not report.ok
        assert report.missing == [1]
        # Rows whose journal entry vanished are orphans.
        assert report.orphan_rows == 2


# ----------------------------------------------------------------------
# SQLITE_BUSY retry


class _FlakyConn:
    """Connection proxy whose commit() raises SQLITE_BUSY *failures*
    times before delegating — a deterministic stand-in for a writer
    losing the commit race to a concurrent partition merge."""

    def __init__(self, conn, failures: int, message="database is locked"):
        self._inner = conn
        self.failures = failures
        self.message = message
        self.calls = 0

    def commit(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise sqlite3.OperationalError(self.message)
        self._inner.commit()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestBusyRetry:
    def test_write_survives_a_transient_lock(self, tmp_path):
        """busy_timeout makes a contended write wait out a short-lived
        writer instead of failing."""
        path = str(tmp_path / "busy.sqlite")
        store = MeasurementStore(path)        # default 5s busy_timeout
        blocker = sqlite3.connect(path, check_same_thread=False)
        blocker.execute("BEGIN IMMEDIATE")
        timer = threading.Timer(
            0.15, lambda: (blocker.commit(), blocker.close())
        )
        timer.start()
        started = time.monotonic()
        store.set_meta("contended", "yes")    # blocks until released
        assert time.monotonic() - started >= 0.1
        timer.join()
        assert store.get_meta("contended") == "yes"
        store.close()

    def test_commit_retries_through_transient_busy(self, tmp_path):
        store = MeasurementStore(
            str(tmp_path / "flaky.sqlite"),
            busy_retries=5, busy_backoff_base=0.001, busy_backoff_max=0.002,
        )
        store._conn = _FlakyConn(store._conn, failures=3)
        store.set_meta("k", "v")
        assert store._conn.calls == 4         # 3 busy + 1 success
        assert store.get_meta("k") == "v"
        store.close()

    def test_exhausted_retries_surface_the_error(self, tmp_path):
        store = MeasurementStore(
            str(tmp_path / "stuck.sqlite"),
            busy_retries=2, busy_backoff_base=0.001, busy_backoff_max=0.002,
        )
        store._conn = _FlakyConn(store._conn, failures=10 ** 6)
        with pytest.raises(sqlite3.OperationalError):
            store.set_meta("k", "v")
        assert store._conn.calls == 3         # initial try + 2 retries
        store.close()

    def test_non_busy_errors_are_not_retried(self, tmp_path):
        store = MeasurementStore(str(tmp_path / "hard.sqlite"))
        store._conn = _FlakyConn(
            store._conn, failures=10 ** 6, message="disk I/O error"
        )
        with pytest.raises(sqlite3.OperationalError):
            store.set_meta("k", "v")
        assert store._conn.calls == 1         # failed fast
        store.close()


# ----------------------------------------------------------------------
# spawn pinning


class TestSpawnPinning:
    def test_config_rejects_non_spawn_start_methods(self):
        """The start method is a constant of the workers module, not an
        option: the config has no way to ask for fork."""
        with pytest.raises(TypeError):
            WorkerConfig(start_method="fork")

    def test_supervisor_context_is_spawn(self, tmp_path):
        store = MeasurementStore(str(tmp_path / "s.sqlite"))
        supervisor = WorkerSupervisor(
            store, mp_config(), SimTransportFactory(SIM_PARAMS)
        )
        assert supervisor._ctx.get_start_method() == "spawn"
        store.close()


# ----------------------------------------------------------------------
# multiprocess rounds: byte-equivalence (tier 1)


class TestMultiprocessRounds:
    def test_two_worker_campaign_is_byte_equivalent(
        self, tmp_path, serial_reference
    ):
        _, reference = serial_reference
        path = str(tmp_path / "mp.sqlite")
        run_mp_campaign(path)
        assert db_snapshot(path) == reference
        # Every merged round verifies, and telemetry shows the pool.
        store = MeasurementStore(path)
        for info in store.rounds():
            assert store.verify_round(info.round_id).ok
        assert main(["verify", path]) == 0
        assert main(["stats", path]) == 0
        store.close()

    def test_worker_telemetry_is_persisted(self, tmp_path):
        path = str(tmp_path / "mp.sqlite")
        run_mp_campaign(path)
        from repro.core.records import PIPELINE_STATS_META_PREFIX
        import json

        store = MeasurementStore(path)
        raw = store.get_meta(f"{PIPELINE_STATS_META_PREFIX}1")
        stats = PipelineStats.from_dict(json.loads(raw))
        assert stats.mode == "multiprocess"
        assert stats.worker_count == 2
        assert stats.partitions_merged >= 2
        assert stats.records_written > 0
        store.close()

    def test_kill_mid_shard_recovers_byte_equivalent(
        self, tmp_path, serial_reference
    ):
        """A worker SIGKILLed mid-partition is restarted; its journal's
        committed shards survive and the retry skips them."""
        _, reference = serial_reference
        path = str(tmp_path / "killed.sqlite")
        chaos = proc_chaos_plan(
            11, kinds=(ProcFaultKind.KILL_MID_SHARD,),
            rounds={2}, partitions={0}, attempts={0},
        )
        run_mp_campaign(path, chaos=chaos)
        assert db_snapshot(path) == reference
        import json
        from repro.core.records import PIPELINE_STATS_META_PREFIX

        store = MeasurementStore(path)
        stats = PipelineStats.from_dict(json.loads(
            store.get_meta(f"{PIPELINE_STATS_META_PREFIX}2")
        ))
        assert stats.worker_restarts >= 1
        assert stats.partition_reassignments >= 1
        assert store.verify_round(2).ok
        store.close()

    def test_corrupt_journal_is_rejected_and_retried(
        self, tmp_path, serial_reference
    ):
        """A journal scribbled over before merge fails verification;
        the partition reruns and the round still matches serial."""
        _, reference = serial_reference
        path = str(tmp_path / "corrupt.sqlite")
        chaos = proc_chaos_plan(
            13, kinds=(ProcFaultKind.CORRUPT_JOURNAL,),
            rounds={2}, partitions={1}, attempts={0},
        )
        run_mp_campaign(path, chaos=chaos)
        assert db_snapshot(path) == reference
        # The torn journal was kept aside for post-mortem.
        rejected = list(
            (tmp_path / "corrupt.sqlite.partitions").glob("*.rejected-*")
        )
        assert rejected

    def test_truncated_journal_is_rejected_and_retried(
        self, tmp_path, serial_reference
    ):
        _, reference = serial_reference
        path = str(tmp_path / "trunc.sqlite")
        chaos = proc_chaos_plan(
            17, kinds=(ProcFaultKind.TRUNCATE_JOURNAL,),
            rounds={1}, partitions={0}, attempts={0},
        )
        run_mp_campaign(path, chaos=chaos)
        assert db_snapshot(path) == reference


# ----------------------------------------------------------------------
# abort / resume / salvage (single rounds, tier 1)


class TestAbortResumeSalvage:
    def _serial_round(self, tmp_path):
        path = str(tmp_path / "serial_round.sqlite")
        platform, store, targets = build_platform(
            path, config=small_config()
        )
        platform.run_round(targets, timestamp=0)
        platform.close()
        rows = [r.to_row() for r in store.records(1)]
        store.close()
        return sorted(rows, key=lambda r: r["ip"])

    def _mp_rows(self, path):
        store = MeasurementStore(path)
        rows = sorted(
            (r.to_row() for r in store.records(1)),
            key=lambda r: r["ip"],
        )
        ok = store.verify_round(1).ok
        store.close()
        return rows, ok

    def test_abort_before_start_then_resume(self, tmp_path):
        reference = self._serial_round(tmp_path)
        path = str(tmp_path / "aborted.sqlite")
        platform, store, targets = build_platform(path)
        abort = asyncio.Event()
        abort.set()
        with pytest.raises(RoundInterrupted):
            platform.run_round(targets, timestamp=0, abort_event=abort)
        assert store.open_rounds()[0].status == ROUND_IN_PROGRESS
        platform.close()
        store.close()

        platform, store, targets = build_platform(path)
        platform.run_round(targets, timestamp=0, resume_round_id=1)
        platform.close()
        store.close()
        rows, ok = self._mp_rows(path)
        assert ok and rows == reference

    def test_resume_partially_complete_round_with_workers(self, tmp_path):
        """Shards 0 and 2 committed serially; workers finish 1 and 3 and
        the merged round is indistinguishable from an all-serial one."""
        ref_path = str(tmp_path / "ref_round.sqlite")
        platform, ref_store, targets = build_platform(
            ref_path, config=small_config()
        )
        platform.run_round(targets, timestamp=0)
        platform.close()

        path = str(tmp_path / "partial.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, len(targets), shard_size=64)
        for index in (0, 2):
            entry = ref_store.shard_journal(1)[index]
            store.write_shard(
                1, index, ref_store.shard_records(1, index),
                errors=entry.errors, operations=entry.operations,
            )
        store.close()
        ref_rows = sorted(
            (r.to_row() for r in ref_store.records(1)),
            key=lambda r: r["ip"],
        )
        ref_store.close()

        platform, store, targets = build_platform(path)
        platform.run_round(targets, timestamp=0, resume_round_id=1)
        platform.close()
        store.close()
        rows, ok = self._mp_rows(path)
        assert ok and rows == ref_rows

    def test_stale_journal_is_salvaged_before_partitioning(self, tmp_path):
        """A journal left by a dead coordinator is checksum-verified and
        merged; its shards are never re-scanned."""
        reference = self._serial_round(tmp_path)
        path = str(tmp_path / "salvage.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, SCENARIO_PARAMS["total_ips"], shard_size=64)
        store.close()

        # Simulate the dead coordinator's worker: partition 0 ran to
        # completion but nobody merged its journal.
        scenario = ec2_scenario(**SCENARIO_PARAMS)
        shards = [
            (i, tuple(scenario.targets[start:start + 64]))
            for i, start in enumerate(range(0, len(scenario.targets), 64))
        ]
        spec = partition_shards(shards, 2)[0]
        journal_dir = tmp_path / "salvage.sqlite.partitions"
        journal_dir.mkdir()
        run_partition(WorkerTask(
            partition=spec, attempt=0, round_id=1, timestamp=0,
            journal_path=str(journal_dir / "r00001_p000.sqlite"),
            config=mp_config(),
            transport_factory=SimTransportFactory(SIM_PARAMS),
        ))

        platform, store, targets = build_platform(path)
        summary = platform.run_round(targets, timestamp=0, resume_round_id=1)
        platform.close()
        store.close()
        assert not summary.degraded
        rows, ok = self._mp_rows(path)
        assert ok and rows == reference
        assert not journal_dir.exists()       # pruned after merge

    def test_merge_rejects_torn_journal(self, tmp_path):
        """_merge_journal refuses a journal sqlite cannot read."""
        path = str(tmp_path / "canon.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, 4, shard_size=2)
        supervisor = WorkerSupervisor(
            store, mp_config(), SimTransportFactory(SIM_PARAMS)
        )
        torn = tmp_path / "torn.sqlite"
        torn.write_bytes(b"SQLite format 3\x00" + b"\xde\xad" * 100)
        report = WorkerRoundReport(stats=PipelineStats(mode="multiprocess"))
        from repro.core.workers import _JournalRejected

        with pytest.raises(_JournalRejected):
            supervisor._merge_journal(str(torn), 1, report)
        assert report.merged_shards == 0
        store.close()

    def test_merge_rejects_missing_expected_shards(self, tmp_path):
        path = str(tmp_path / "canon2.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, 4, shard_size=2)
        journal_path = str(tmp_path / "short.sqlite")
        journal = MeasurementStore(journal_path)
        journal.begin_round(1, 0, 4, shard_size=2)
        journal.write_shard(1, 0, [record(1, 1, 0)])
        journal.close()
        supervisor = WorkerSupervisor(
            store, mp_config(), SimTransportFactory(SIM_PARAMS)
        )
        report = WorkerRoundReport(stats=PipelineStats(mode="multiprocess"))
        from repro.core.workers import _JournalRejected

        with pytest.raises(_JournalRejected):
            supervisor._merge_journal(
                journal_path, 1, report, expected=(0, 1)
            )
        store.close()


# ----------------------------------------------------------------------
# CLI verify exit codes


class TestVerifyCli:
    def test_verify_detects_tampering(self, tmp_path, capsys):
        path = str(tmp_path / "cli.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, 2, shard_size=2)
        store.write_shard(1, 0, [record(1, 1, 0), record(2, 1, 0)])
        store.finalize_round(1)
        store.close()
        assert main(["verify", path]) == 0
        conn = sqlite3.connect(path)
        conn.execute("UPDATE round_00000 SET title = 'evil' WHERE ip = 1")
        conn.commit()
        conn.close()
        assert main(["verify", path]) == 1
        out = capsys.readouterr()
        assert "FAIL" in out.out

    def test_verify_selects_one_round(self, tmp_path):
        path = str(tmp_path / "cli2.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, 1, shard_size=2)
        store.write_shard(1, 0, [record(1, 1, 0)])
        store.finalize_round(1)
        store.close()
        assert main(["verify", path, "--round", "1"]) == 0
        assert main(["verify", path, "--round", "9"]) == 1


# ----------------------------------------------------------------------
# chaos tier: freeze + storms (slow — run with -m chaos)


@pytest.mark.chaos
class TestWorkersChaosTier:
    def test_frozen_worker_is_killed_and_reassigned(
        self, tmp_path, serial_reference
    ):
        """A worker that blocks its event loop stops heartbeating; the
        supervisor SIGKILLs it past the deadline and the retry wins."""
        _, reference = serial_reference
        path = str(tmp_path / "frozen.sqlite")
        chaos = proc_chaos_plan(
            19, kinds=(ProcFaultKind.FREEZE,),
            rounds={1}, partitions={1}, attempts={0},
            freeze_seconds=60.0,
        )
        run_mp_campaign(
            path, config=mp_config(heartbeat_timeout=1.0), chaos=chaos
        )
        assert db_snapshot(path) == reference
        import json
        from repro.core.records import PIPELINE_STATS_META_PREFIX

        store = MeasurementStore(path)
        stats = PipelineStats.from_dict(json.loads(
            store.get_meta(f"{PIPELINE_STATS_META_PREFIX}1")
        ))
        assert stats.worker_restarts >= 1
        assert stats.max_heartbeat_age > 1.0
        store.close()

    def test_kill_storm_every_round_still_byte_equivalent(
        self, tmp_path, serial_reference
    ):
        """First attempt of partition 0 dies in every round; the merged
        campaign still matches serial end to end."""
        _, reference = serial_reference
        path = str(tmp_path / "storm.sqlite")
        chaos = proc_chaos_plan(
            23, kinds=(ProcFaultKind.KILL_MID_SHARD,),
            partitions={0}, attempts={0},
        )
        run_mp_campaign(path, chaos=chaos)
        assert db_snapshot(path) == reference
        assert main(["verify", path]) == 0

    def test_retry_exhaustion_falls_back_inline_and_degrades(
        self, tmp_path, serial_reference
    ):
        """Chaos on every attempt exhausts the retry budget; the
        coordinator runs the partition inline (no chaos) and marks the
        round degraded — the data itself is still byte-identical."""
        _, reference = serial_reference
        path = str(tmp_path / "exhausted.sqlite")
        attempts = frozenset(range(10))
        chaos = proc_chaos_plan(
            29, kinds=(ProcFaultKind.KILL_MID_SHARD,),
            rounds={1}, partitions={0}, attempts=attempts,
        )
        run_mp_campaign(
            path, config=mp_config(max_partition_retries=1), chaos=chaos
        )
        rounds, rows = db_snapshot(path)
        assert rows == reference[1]            # records identical
        store = MeasurementStore(path)
        info = [i for i in store.rounds() if i.round_id == 1][0]
        assert info.status == "degraded"
        import json
        from repro.core.records import PIPELINE_STATS_META_PREFIX

        stats = PipelineStats.from_dict(json.loads(
            store.get_meta(f"{PIPELINE_STATS_META_PREFIX}1")
        ))
        assert stats.partitions_failed >= 1
        store.close()
