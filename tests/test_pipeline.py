"""Streaming pipeline: ordering, backpressure, commits, equivalence.

The contract under test: the streaming engine must be byte-equivalent
to the one-shard-at-a-time oracle (``_fakes.serial_oracle``) for every
store-visible artefact — record rows, round metadata, shard journal,
quarantine entries (as a multiset; only their insertion order within a
shard may differ) — including runs interrupted mid-round and resumed.
Plus unit coverage of the queue and pipeline primitives and the
telemetry surfaces.
"""

from __future__ import annotations

import asyncio
import json
import sqlite3
from contextlib import closing

import pytest

from repro.cli import main
from repro.core import platform as platform_module
from repro.core.config import WorkerConfig
from repro.core.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    FaultyTransport,
    chaos_plan,
    hostile_plan,
)
from repro.core.pipeline import (
    BoundedShardQueue,
    RoundPipeline,
    ShardWork,
    _DONE,
)
from repro.core.platform import WhoWas
from repro.core.records import (
    PIPELINE_STATS_META_PREFIX,
    PipelineStats,
    StageStats,
)
from repro.core.store import MeasurementStore
from repro.workloads import (
    Campaign,
    CampaignInterrupted,
    SimTransportFactory,
    ec2_scenario,
)
from _fakes import serial_oracle
from test_recovery import (
    SCENARIO_PARAMS,
    AbortTrigger,
    CrashOnFault,
    db_snapshot,
    small_config,
)


def hostile_scenario():
    """The standard small scenario with hostile chaos content."""
    scenario = ec2_scenario(**SCENARIO_PARAMS)
    scenario.transport = FaultyTransport(
        scenario.transport, hostile_plan(13, rate=0.2)
    )
    return scenario


def quarantine_snapshot(path: str):
    """The quarantine table as a sorted multiset — insertion order
    within a shard is scheduling-dependent (fetch completion order),
    so equivalence is up to ordering."""
    conn = sqlite3.connect(path)
    rows = conn.execute(
        "SELECT round_id, ip, timestamp, stage, verdict, error_class,"
        " payload, replayed FROM quarantine"
    ).fetchall()
    conn.close()
    return sorted(rows)


def hostile_campaign(path: str, *, oracle: bool = False):
    """Run the standard small campaign with hostile chaos content on
    the engine, or on the serial *oracle*; returns the result."""
    store = MeasurementStore(path)
    try:
        campaign = Campaign(
            hostile_scenario(), store=store, config=small_config()
        )
        if oracle:
            serial_oracle(campaign.platform)
        return campaign.run()
    finally:
        store.close()


# ----------------------------------------------------------------------
# BoundedShardQueue


class FakeLimiter:
    def __init__(self, limit: int, max_limit: int):
        self.limit = limit
        self.max_limit = max_limit


class TestBoundedShardQueue:
    def run(self, coro):
        return asyncio.run(coro)

    def test_fifo_order(self):
        async def scenario():
            queue = BoundedShardQueue(4)
            for i in range(3):
                await queue.put(i)
            return [await queue.get() for _ in range(3)]

        assert self.run(scenario()) == [0, 1, 2]

    def test_put_blocks_at_capacity_until_get(self):
        async def scenario():
            queue = BoundedShardQueue(1)
            await queue.put("a")
            putter = asyncio.create_task(queue.put("b"))
            await asyncio.sleep(0)
            assert not putter.done()          # parked: queue is full
            assert await queue.get() == "a"
            await asyncio.wait_for(putter, 1)
            return queue.put_waits, queue.peak

        put_waits, peak = self.run(scenario())
        assert put_waits == 1
        assert peak == 1

    def test_aimd_limiter_scales_capacity(self):
        limiter = FakeLimiter(limit=250, max_limit=250)
        queue = BoundedShardQueue(4, limiter=limiter)
        assert queue.capacity() == 4
        limiter.limit = 125
        assert queue.capacity() == 2
        limiter.limit = 8           # deep AIMD backoff
        assert queue.capacity() == 1        # floor: progress guaranteed
        limiter.limit = 250
        assert queue.capacity() == 4        # recovers with the window

    def test_done_marker_is_exempt_from_capacity(self):
        async def scenario():
            queue = BoundedShardQueue(1)
            await queue.put("work")
            # The end-of-stream marker must never deadlock behind a
            # full queue.
            await asyncio.wait_for(queue.put(_DONE), 1)
            return await queue.get(), await queue.get()

        item, done = self.run(scenario())
        assert item == "work" and done is _DONE


# ----------------------------------------------------------------------
# RoundPipeline unit behaviour (stub stages)


def _noop_stage():
    async def stage(work: ShardWork) -> int:
        return 1
    return stage


def _collecting_writer(committed: list, *, delay: float = 0.0):
    async def write(work: ShardWork) -> int:
        committed.append(work.index)
        if delay:
            await asyncio.sleep(delay)
        return 1
    return write


class TestRoundPipeline:
    def _pipeline(self, committed, *, delay=0.0, **kwargs):
        return RoundPipeline(
            scan=kwargs.pop("scan", _noop_stage()),
            fetch=kwargs.pop("fetch", _noop_stage()),
            extract=kwargs.pop("extract", _noop_stage()),
            write=_collecting_writer(committed, delay=delay),
            **kwargs,
        )

    def test_commits_every_shard_in_order(self):
        committed: list[int] = []
        works = [ShardWork(index=i, targets=[i]) for i in range(10)]
        pipeline = self._pipeline(committed)
        stats = asyncio.run(pipeline.run(iter(works)))
        assert committed == list(range(10))
        assert stats.shards_written == 10
        assert stats.stage("scan").shards == 10

    def test_slow_writer_still_commits_one_shard_per_transaction(self):
        """Even as the slowest stage, with shards queued up behind it,
        the writer commits one shard per transaction in shard order —
        the benchmark's exact count ``store.sqlite.commits`` relies on
        it."""
        committed: list[int] = []
        works = [ShardWork(index=i, targets=[i]) for i in range(12)]
        pipeline = self._pipeline(committed, delay=0.02)
        stats = asyncio.run(pipeline.run(iter(works)))
        assert committed == list(range(12))
        assert stats.writer_flushes == stats.shards_written == 12
        assert stats.writer_max_batch == 1
        assert stats.stage("extract").queue_peak > 1   # it did fall behind

    def test_stage_failure_drains_earlier_shards_then_raises(self):
        committed: list[int] = []

        async def fetch(work: ShardWork) -> int:
            if work.index == 2:
                raise RuntimeError("boom on shard 2")
            return 1

        pipeline = self._pipeline(committed, fetch=fetch)
        works = [ShardWork(index=i, targets=[i]) for i in range(6)]
        with pytest.raises(RuntimeError, match="boom on shard 2"):
            asyncio.run(pipeline.run(iter(works)))
        # Crash equivalence with the sequential loop: everything before
        # the failing shard committed, nothing at or after it did.
        assert committed == [0, 1]

    def test_abort_stops_feeding_and_drains_in_flight(self):
        committed: list[int] = []
        event = asyncio.Event()

        async def scenario():
            async def scan(work: ShardWork) -> int:
                if work.index == 1:
                    event.set()
                return 1

            pipeline = self._pipeline(
                committed, scan=scan, abort_event=event,
            )
            works = [ShardWork(index=i, targets=[i]) for i in range(50)]
            await pipeline.run(iter(works))
            return pipeline.aborted

        aborted = asyncio.run(scenario())
        assert aborted
        # Everything fed before the abort drained and committed; the
        # tail of the round was never started.
        assert committed == sorted(committed)
        assert 0 < len(committed) < 50

    def test_backpressure_telemetry_counts_producer_stalls(self):
        committed: list[int] = []

        async def slow_extract(work: ShardWork) -> int:
            await asyncio.sleep(0.005)
            return 1

        pipeline = self._pipeline(committed, extract=slow_extract)
        works = [ShardWork(index=i, targets=[i]) for i in range(8)]
        stats = asyncio.run(pipeline.run(iter(works)))
        # The fast upstream stages must have stalled on the slow
        # extract stage's input queue at least once.
        assert stats.stage("fetch").backpressure_waits > 0
        assert stats.stage("fetch").queue_peak >= 1


# ----------------------------------------------------------------------
# engine equivalence: streaming pipeline vs the serial oracle


class TestEngineEquivalence:
    def test_hostile_chaos_campaign_is_byte_equivalent(self, tmp_path):
        """Full campaign with network faults + hostile content: rows,
        rounds and quarantine (sorted) identical to the oracle's."""
        overlapped = str(tmp_path / "overlap.sqlite")
        serial = str(tmp_path / "serial.sqlite")
        hostile_campaign(overlapped)
        hostile_campaign(serial, oracle=True)

        assert db_snapshot(overlapped) == db_snapshot(serial)
        q_overlapped = quarantine_snapshot(overlapped)
        assert q_overlapped == quarantine_snapshot(serial)
        assert q_overlapped, "hostile storm produced no quarantine rows"

    def test_abort_resume_overlapped_matches_serial_reference(
        self, tmp_path
    ):
        """Mid-round SIGINT while the pipeline is streaming, then
        resume: the healed database equals an uninterrupted serial
        run — including the interrupted round's quarantine."""
        serial = str(tmp_path / "serial.sqlite")
        hostile_campaign(serial, oracle=True)

        aborted = str(tmp_path / "aborted.sqlite")
        event = asyncio.Event()
        store = MeasurementStore(aborted)
        scenario = hostile_scenario()
        scenario.transport = AbortTrigger(
            scenario.transport, event, round_id=2, after_probes=100
        )
        with pytest.raises(CampaignInterrupted):
            Campaign(
                scenario, store=store, config=small_config()
            ).run(abort_event=event)
        store.close()

        reopened = MeasurementStore(aborted)
        Campaign(
            hostile_scenario(), store=reopened, config=small_config()
        ).resume()
        reopened.close()

        assert db_snapshot(aborted) == db_snapshot(serial)
        assert quarantine_snapshot(aborted) == quarantine_snapshot(serial)

    def test_crash_resume_serial_matches_overlapped_reference(
        self, tmp_path
    ):
        """Cross-mode healing: crash a streaming run mid-round, then
        resume it through the *serial oracle* — still byte-equivalent
        to an uninterrupted streaming run."""
        reference = str(tmp_path / "reference.sqlite")
        hostile_campaign(reference)

        crashed = str(tmp_path / "crashed.sqlite")
        victim = ec2_scenario(**SCENARIO_PARAMS).targets[140]
        plan = FaultPlan(seed=1, rules=(
            FaultRule(FaultKind.CONNECT_TIMEOUT, ips={victim}, rounds={2}),
        ))
        store = MeasurementStore(crashed)
        scenario = hostile_scenario()
        scenario.transport = CrashOnFault(scenario.transport, plan)
        with pytest.raises(RuntimeError, match="simulated crash"):
            Campaign(
                scenario, store=store, config=small_config()
            ).run()
        del store

        reopened = MeasurementStore(crashed)
        campaign = Campaign(
            hostile_scenario(), store=reopened, config=small_config()
        )
        serial_oracle(campaign.platform)
        campaign.resume()
        reopened.close()

        assert db_snapshot(crashed) == db_snapshot(reference)
        assert quarantine_snapshot(crashed) == quarantine_snapshot(reference)


# ----------------------------------------------------------------------
# telemetry surfaces: RoundSummary.pipeline, persisted stats, duration


class TestTelemetry:
    def _one_round(self, tmp_path):
        path = str(tmp_path / "round.sqlite")
        scenario = ec2_scenario(total_ips=256, seed=5, duration_days=3)
        store = MeasurementStore(path)
        platform = WhoWas(
            scenario.transport, store=store, config=small_config()
        )
        summary = platform.run_round(
            list(scenario.targets), timestamp=scenario.scan_days[0]
        )
        return path, store, platform, summary

    def test_round_summary_carries_pipeline_stats(self, tmp_path):
        _, store, platform, summary = self._one_round(tmp_path)
        stats = summary.pipeline
        assert stats is not None and stats.mode == "overlapped"
        assert set(stats.stages) == {"scan", "fetch", "extract", "write"}
        assert stats.records_written == summary.responsive
        assert stats.shards_written == 4            # 256 IPs / 64
        assert stats.wall_seconds > 0
        assert stats.stage("scan").items == 256
        platform.close()
        store.close()

    def test_stats_persisted_to_campaign_meta(self, tmp_path):
        _, store, platform, summary = self._one_round(tmp_path)
        raw = store.get_meta(
            f"{PIPELINE_STATS_META_PREFIX}{summary.round_id}"
        )
        assert raw is not None
        restored = PipelineStats.from_dict(json.loads(raw))
        assert restored.mode == "overlapped"
        assert restored.records_written == summary.responsive
        assert restored.stage("write").shards == 4
        platform.close()
        store.close()

    def test_duration_seconds_persisted_on_round_info(self, tmp_path):
        path, store, platform, summary = self._one_round(tmp_path)
        assert summary.info.duration_seconds > 0
        store.close()
        platform.close()
        reopened = MeasurementStore(path)
        info = reopened.round_info(summary.round_id)
        assert info.duration_seconds == pytest.approx(
            summary.info.duration_seconds
        )
        reopened.close()

    def test_stage_stats_roundtrip(self):
        stats = PipelineStats(mode="overlapped")
        stage = stats.stage("scan")
        stage.shards, stage.items, stage.busy_seconds = 3, 192, 0.5
        stats.records_written = 60
        stats.wall_seconds = 2.0
        restored = PipelineStats.from_dict(stats.to_dict())
        assert restored == stats
        assert restored.records_per_second == 30.0
        assert isinstance(restored.stage("scan"), StageStats)
        assert restored.stage("scan").items_per_second == pytest.approx(384)
        # What older campaigns persisted must still load (`repro stats`
        # on an existing database).
        legacy = PipelineStats.from_dict({
            "mode": "serial", "wall_seconds": 1.5, "records_written": 30,
            "shards_written": 4, "writer_flushes": 1,
            "writer_max_batch": 4,
            "stages": {"write": {"name": "write", "shards": 4, "items": 30}},
        })
        assert (legacy.mode, legacy.writer_max_batch) == ("serial", 4)
        assert legacy.stage("write").shards == 4
        assert legacy.partitions == {}

    def test_run_round_reuses_one_event_loop(self):
        scenario = ec2_scenario(total_ips=64, seed=5, duration_days=6)
        platform = WhoWas(scenario.transport, config=small_config())
        platform.run_round(list(scenario.targets), timestamp=0)
        loop = platform._loop
        assert loop is not None and not loop.is_closed()
        platform.run_round(list(scenario.targets), timestamp=1)
        assert platform._loop is loop        # same loop, not a fresh one
        platform.close()
        assert loop.is_closed()

    def test_shard_commit_order_is_shard_order(self, tmp_path):
        path, store, platform, summary = self._one_round(tmp_path)
        conn = sqlite3.connect(path)
        order = [
            row[0] for row in conn.execute(
                "SELECT shard_index FROM round_shards "
                "WHERE round_id = ? ORDER BY rowid",
                (summary.round_id,),
            )
        ]
        conn.close()
        assert order == sorted(order) == [0, 1, 2, 3]
        platform.close()
        store.close()


# ----------------------------------------------------------------------
# one round lifecycle: begin → execute shards → finish, wherever they ran


def lifecycle_reading(summary, store) -> dict:
    """The run-independent part of what ``_finish_round`` hands back
    and persists, after checking the two copies agree."""
    persisted = json.loads(store.get_meta(
        f"{PIPELINE_STATS_META_PREFIX}{summary.round_id}"
    ))
    assert persisted == summary.pipeline.to_dict()
    info = store.round_info(summary.round_id)
    assert summary.info.duration_seconds == info.duration_seconds > 0
    return {
        "summary": (
            summary.responsive, summary.available, summary.fetched,
            summary.errors, summary.quarantined, summary.degraded,
        ),
        "stats": tuple(persisted[key] for key in (
            "mode", "records_written", "shards_written", "writer_flushes",
            "writer_max_batch", "worker_count", "partitions_merged",
        )),
        "stage_items": {
            name: stage["items"]
            for name, stage in persisted["stages"].items()
        },
    }


class TestRoundLifecycle:
    """Both ways of executing a round's shards go through the same
    ``_begin_round`` / ``_finish_round``; the literals are what commit
    53095b2 (two copies of each) produced for the same seeds."""

    @pytest.fixture(autouse=True)
    def tight_budget(self, monkeypatch):
        """An error budget the storms blow."""
        monkeypatch.setattr(platform_module, "ROUND_ERROR_BUDGET", 0.01)

    def stormy_scenario(self):
        scenario = hostile_scenario()
        scenario.transport = FaultyTransport(
            scenario.transport, chaos_plan(7, rate=0.1)
        )
        return scenario

    def test_resumed_round_finishes_like_the_parent(self, tmp_path):
        path = str(tmp_path / "resumed.sqlite")
        scenario = self.stormy_scenario()
        crash = FaultPlan(seed=1, rules=(FaultRule(
            FaultKind.CONNECT_TIMEOUT, ips={scenario.targets[140]},
        ),))
        store = MeasurementStore(path)
        with closing(WhoWas(
            CrashOnFault(scenario.transport, crash), store,
            small_config(),
        )) as platform:
            with pytest.raises(RuntimeError, match="simulated crash"):
                platform.run_round(list(scenario.targets), timestamp=0)
        assert store.completed_shards(1) == {0, 1}
        store.close()

        scenario = self.stormy_scenario()
        store = MeasurementStore(path)
        with closing(WhoWas(
            scenario.transport, store, small_config()
        )) as platform:
            summary = platform.run_round(
                list(scenario.targets), timestamp=0, resume_round_id=1
            )
        assert lifecycle_reading(summary, store) == {
            "summary": (54, 28, 41, 207, 12, True),
            # Only the two shards the resume executed.
            "stats": ("overlapped", 43, 2, 2, 1, 0, 0),
            "stage_items": {
                "scan": 128, "fetch": 37, "extract": 43, "write": 43,
            },
        }
        store.close()

    def test_two_worker_round_finishes_like_the_parent(self, tmp_path):
        from test_workers import SIM_PARAMS

        scenario = ec2_scenario(**SCENARIO_PARAMS)
        store = MeasurementStore(str(tmp_path / "workers.sqlite"))
        with closing(WhoWas(
            scenario.transport, store,
            small_config(workers=WorkerConfig(count=2)),
            transport_factory=SimTransportFactory(
                dict(SIM_PARAMS, chaos_rate=0.2, chaos_seed=7)
            ),
        )) as platform:
            summary = platform.run_round(scenario.targets, timestamp=0)
        assert lifecycle_reading(summary, store) == {
            "summary": (42, 11, 30, 371, 0, True),
            "stats": ("multiprocess", 42, 4, 4, 1, 2, 2),
            "stage_items": {"scan": 256, "fetch": 30, "extract": 42},
        }
        store.close()


# ----------------------------------------------------------------------
# CLI: repro rounds / repro stats


class TestCli:
    @pytest.fixture()
    def campaign_db(self, tmp_path):
        path = str(tmp_path / "cli.sqlite")
        scenario = ec2_scenario(total_ips=256, seed=5, duration_days=6)
        store = MeasurementStore(path)
        Campaign(scenario, store=store, config=small_config()).run()
        store.close()
        return path

    def test_rounds_lists_durations(self, campaign_db, capsys):
        assert main(["rounds", campaign_db]) == 0
        out = capsys.readouterr().out
        assert "duration" in out
        assert "complete" in out

    def test_stats_shows_stage_throughput(self, campaign_db, capsys):
        assert main(["stats", campaign_db]) == 0
        out = capsys.readouterr().out
        assert "overlapped" in out
        for stage in ("scan", "fetch", "extract", "write"):
            assert stage in out
        assert "rec/s" in out

    def test_stats_single_round_and_missing_round(self, campaign_db, capsys):
        assert main(["stats", campaign_db, "--round", "1"]) == 0
        assert "round 1" in capsys.readouterr().out
        assert main(["stats", campaign_db, "--round", "99"]) == 1
