"""Crash recovery: journaled rounds, resumable campaigns.

The paper's campaigns run for months; these tests assert that a
process killed mid-round (simulated crash), or stopped cooperatively
(abort event / SIGINT), leaves a checkpointed database that ``resume``
completes into a byte-equivalent copy of an uninterrupted run — same
responsive IPs, same rows, same round metadata, no duplicates.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import main
from repro.core import platform as platform_module
from repro.core.config import (
    FetchConfig,
    PlatformConfig,
    ScanConfig,
)
from repro.core.faults import (
    FaultKind,
    FaultPlan,
    FaultRule,
    FaultyTransport,
    chaos_plan,
)
from repro.core.platform import RoundInterrupted, WhoWas
from repro.core.store import (
    ROUND_COMPLETE,
    ROUND_IN_PROGRESS,
    MeasurementStore,
    open_store,
)
from repro.core.transport import ConnectionRefused
from repro.workloads import Campaign, CampaignInterrupted, ec2_scenario
from _fakes import serial_oracle, write_round
from test_store import record


# Small enough to stay fast, big enough for 4 shards of 64 per round.
SCENARIO_PARAMS = dict(total_ips=256, seed=5, duration_days=12)


def small_config(**overrides) -> PlatformConfig:
    """simulation_config, but with 64-IP shards so a 256-IP round has
    four checkpoints."""
    kwargs = dict(
        scan=ScanConfig(probes_per_second=1e12, concurrency=2048),
        fetch=FetchConfig(workers=2048),
        grab_ssh_banners=True,
        shard_size=64,
    )
    kwargs.update(overrides)
    return PlatformConfig(**kwargs)


class CrashOnFault:
    """Transport wrapper that dies with RuntimeError (a non-transport
    error, i.e. a process crash) exactly where a seeded FaultPlan
    fires — a deterministic, replayable mid-shard kill."""

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.round_id = 0

    def on_round_start(self, round_id: int) -> None:
        self.round_id = round_id
        hook = getattr(self.inner, "on_round_start", None)
        if callable(hook):
            hook(round_id)

    async def probe(self, ip, port, timeout):
        if self.plan.fault_for("probe", ip, port, self.round_id, 0):
            raise RuntimeError("simulated crash (fault-plan driven)")
        return await self.inner.probe(ip, port, timeout)

    async def banner(self, ip, port, timeout):
        return await self.inner.banner(ip, port, timeout)

    async def get(self, ip, scheme, path, **kwargs):
        return await self.inner.get(ip, scheme, path, **kwargs)


class AbortTrigger:
    """Transport wrapper that sets an abort event after N probes of a
    given round — an operator's ^C at a deterministic instant."""

    def __init__(self, inner, event: asyncio.Event, *,
                 round_id: int, after_probes: int):
        self.inner = inner
        self.event = event
        self.trigger_round = round_id
        self.after_probes = after_probes
        self.round_id = 0
        self._count = 0

    def on_round_start(self, round_id: int) -> None:
        self.round_id = round_id
        self._count = 0
        hook = getattr(self.inner, "on_round_start", None)
        if callable(hook):
            hook(round_id)

    async def probe(self, ip, port, timeout):
        if self.round_id == self.trigger_round:
            self._count += 1
            if self._count == self.after_probes:
                self.event.set()
        return await self.inner.probe(ip, port, timeout)

    async def banner(self, ip, port, timeout):
        return await self.inner.banner(ip, port, timeout)

    async def get(self, ip, scheme, path, **kwargs):
        return await self.inner.get(ip, scheme, path, **kwargs)


class DeadTransport:
    """Every probe is actively refused (classified error)."""

    async def probe(self, ip, port, timeout):
        raise ConnectionRefused("refused")

    async def banner(self, ip, port, timeout):
        raise ConnectionRefused("refused")

    async def get(self, ip, scheme, path, **kwargs):
        raise ConnectionRefused("refused")


def db_snapshot(path: str):
    """Full content snapshot of a round database: round metadata plus
    every record row, ordered, for byte-equivalence comparison.  Opens
    through the interface so snapshots compare across engines."""
    store = open_store(path)
    rounds = [
        (i.round_id, i.timestamp, i.targets_probed, i.responsive_count,
         i.degraded, i.error_count, i.status)
        for i in store.rounds()
    ]
    rows = {}
    for info in store.rounds():
        round_rows = sorted(
            (r.to_row() for r in store.records(info.round_id)),
            key=lambda row: row["ip"],
        )
        ips = [row["ip"] for row in round_rows]
        assert len(ips) == len(set(ips)), (
            f"duplicate IP rows in round {info.round_id}"
        )
        rows[info.round_id] = round_rows
    store.close()
    return rounds, rows


# ----------------------------------------------------------------------
# store: journaled round protocol


class TestJournaledStore:
    def test_begin_write_finalize(self):
        store = MeasurementStore()
        store.begin_round(1, 0, 10, shard_size=2)
        assert store.open_rounds()[0].round_id == 1
        assert store.rounds() == []          # invisible until finalized
        store.write_shard(1, 0, [record(1, 1, 0), record(2, 1, 0)])
        store.write_shard(1, 1, [record(3, 1, 0)], errors=2, operations=9)
        info = store.finalize_round(1)
        assert info.responsive_count == 3
        assert info.status == ROUND_COMPLETE
        assert info.error_count == 2          # summed from shard journal
        assert store.open_rounds() == []
        assert store.responsive_ips(1) == {1, 2, 3}

    def test_write_shard_is_idempotent(self):
        store = MeasurementStore()
        store.begin_round(1, 0, 10)
        assert store.write_shard(1, 0, [record(1, 1, 0)]) is True
        assert store.write_shard(1, 0, [record(1, 1, 0)]) is False
        store.finalize_round(1)
        assert len(list(store.records(1))) == 1

    def test_resume_keeps_committed_shards_and_shard_size(self):
        store = MeasurementStore()
        store.begin_round(1, 0, 10, shard_size=4)
        store.write_shard(1, 0, [record(1, 1, 0)])
        # Re-opening (the resume path) keeps the shard and its sizing,
        # even when the caller now runs with a different config.
        info = store.begin_round(1, 0, 10, shard_size=99)
        assert info.shard_size == 4
        assert store.completed_shards(1) == {0}
        store.write_shard(1, 1, [record(2, 1, 0)])
        assert store.finalize_round(1).responsive_count == 2

    def test_crash_between_shards_is_resumable_on_reopen(self, tmp_path):
        path = str(tmp_path / "campaign.sqlite")
        store = MeasurementStore(path)
        store.begin_round(1, 0, 100, shard_size=1)
        store.write_shard(1, 0, [record(7, 1, 0)])
        del store                         # crash: never finalized/closed

        reopened = MeasurementStore(path)
        assert reopened.rounds() == []
        (partial,) = reopened.open_rounds()
        assert partial.round_id == 1 and partial.status == ROUND_IN_PROGRESS
        assert reopened.completed_shards(1) == {0}
        reopened.write_shard(1, 1, [record(8, 1, 0)])
        assert reopened.finalize_round(1).responsive_count == 2
        reopened.close()

    def test_finalized_round_cannot_be_reopened(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [])
        with pytest.raises(ValueError, match="already finalized"):
            store.begin_round(1, 0, 10)

    def test_timestamp_collision_raises(self):
        """Two rounds sharing a timestamp would share a table and drop
        each other's data; the store refuses instead."""
        store = MeasurementStore()
        write_round(store, 1, 5, 10, [record(1, 1, 5)])
        with pytest.raises(ValueError, match="timestamp 5 already used"):
            write_round(store, 2, 5, 10, [record(2, 2, 5)])
        with pytest.raises(ValueError, match="timestamp 5 already used"):
            store.begin_round(3, 5, 10)

    def test_max_round_id_counts_open_rounds(self):
        store = MeasurementStore()
        assert store.max_round_id() == 0
        write_round(store, 3, 0, 10, [])
        store.begin_round(7, 9, 10)
        assert store.max_round_id() == 7

    def test_wal_mode_on_file_stores(self, tmp_path):
        store = MeasurementStore(str(tmp_path / "wal.sqlite"))
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.close()

    def test_meta_roundtrip_and_persistence(self, tmp_path):
        path = str(tmp_path / "meta.sqlite")
        store = MeasurementStore(path)
        assert store.get_meta("scenario") is None
        assert store.get_meta("scenario", "fallback") == "fallback"
        store.set_meta("scenario", "EC2")
        store.set_meta("scenario", "Azure")      # upsert
        store.set_meta("completed_days", json.dumps([0, 3]))
        store.close()
        reopened = MeasurementStore(path)
        assert reopened.get_meta("scenario") == "Azure"
        assert reopened.get_meta("completed_days") == "[0, 3]"
        reopened.close()


# ----------------------------------------------------------------------
# platform: durable round IDs, checkpointed shards, cooperative abort


class TestPlatformRecovery:
    def test_round_ids_continue_from_store(self, tmp_path):
        path = str(tmp_path / "ids.sqlite")
        store = MeasurementStore(path)
        write_round(store, 1, 0, 4, [])
        write_round(store, 2, 3, 4, [])
        store.close()

        reopened = MeasurementStore(path)
        platform = WhoWas(
            DeadTransport(), reopened,
            PlatformConfig(scan=ScanConfig(probes_per_second=1e12)),
        )
        summary = platform.run_round([1, 2, 3], timestamp=6)
        assert summary.round_id == 3
        reopened.close()

    def test_abort_event_checkpoints_current_shard(self, monkeypatch):
        """With the event pre-set, no shard runs; mid-run, the current
        shard commits before RoundInterrupted surfaces."""
        # Every operation fails on a dead network: only a budget of 1
        # lets the resumed round finish ``complete``.
        monkeypatch.setattr(platform_module, "ROUND_ERROR_BUDGET", 1.0)
        store = MeasurementStore()
        platform = WhoWas(
            DeadTransport(), store,
            PlatformConfig(
                scan=ScanConfig(probes_per_second=1e12),
                shard_size=2,
            ),
        )
        event = asyncio.Event()
        event.set()
        with pytest.raises(RoundInterrupted) as excinfo:
            platform.run_round(list(range(6)), timestamp=0,
                               abort_event=event)
        assert excinfo.value.shards_done == 0
        assert excinfo.value.shards_total == 3
        (partial,) = store.open_rounds()
        assert partial.round_id == 1

        # Resuming the same round finishes the remaining shards.
        summary = platform.run_round(
            list(range(6)), timestamp=0, resume_round_id=1
        )
        assert summary.round_id == 1
        assert store.round_info(1).status == ROUND_COMPLETE

    def test_grab_banners_type_hints_resolve(self):
        """Regression: ProbeOutcome was only referenced in a string
        annotation without being imported, so get_type_hints blew up."""
        import typing

        hints = typing.get_type_hints(WhoWas._grab_banners)
        assert "outcomes" in hints


# ----------------------------------------------------------------------
# campaign: crash → resume → byte-equivalent database


def reference_db(tmp_path, name="reference.sqlite") -> str:
    path = str(tmp_path / name)
    Campaign(
        ec2_scenario(**SCENARIO_PARAMS),
        store=MeasurementStore(path),
        config=small_config(),
    ).run()
    return path


class TestCampaignCrashRecovery:
    def test_serial_escape_hatch_matches_overlapped_engine(self, tmp_path):
        """The one-shard-at-a-time oracle reproduces the streaming
        engine's store byte-for-byte over a full campaign."""
        reference = reference_db(tmp_path)       # the streaming engine
        serial = str(tmp_path / "serial.sqlite")
        campaign = Campaign(
            ec2_scenario(**SCENARIO_PARAMS),
            store=MeasurementStore(serial),
            config=small_config(),
        )
        serial_oracle(campaign.platform)
        campaign.run()
        assert db_snapshot(serial) == db_snapshot(reference)

    def test_crash_mid_shard_then_resume_is_byte_equivalent(self, tmp_path):
        reference = reference_db(tmp_path)

        # Kill the process (RuntimeError) while round 2 probes shard 2.
        crashed = str(tmp_path / "crashed.sqlite")
        scenario = ec2_scenario(**SCENARIO_PARAMS)
        victim = scenario.targets[140]          # shard index 140 // 64 == 2
        plan = FaultPlan(seed=1, rules=(
            FaultRule(FaultKind.CONNECT_TIMEOUT, ips={victim}, rounds={2}),
        ))
        scenario.transport = CrashOnFault(scenario.transport, plan)
        store = MeasurementStore(crashed)
        with pytest.raises(RuntimeError, match="simulated crash"):
            Campaign(scenario, store=store, config=small_config()).run()
        del store                                # process is gone

        # The reopened store surfaces the partial round...
        reopened = MeasurementStore(crashed)
        (partial,) = reopened.open_rounds()
        assert partial.timestamp == 3
        done = reopened.completed_shards(partial.round_id)
        assert done and len(done) < 4            # mid-round, not empty

        # ...and a fresh process (scenario rebuilt from the same
        # parameters) resumes from the first incomplete day/shard.
        result = Campaign(
            ec2_scenario(**SCENARIO_PARAMS),
            store=reopened,
            config=small_config(),
        ).resume()
        assert [s.info.timestamp for s in result.summaries] == [3, 6, 9]
        reopened.close()

        assert db_snapshot(crashed) == db_snapshot(reference)

    def test_abort_event_then_resume_is_byte_equivalent(self, tmp_path):
        reference = reference_db(tmp_path)

        aborted = str(tmp_path / "aborted.sqlite")
        scenario = ec2_scenario(**SCENARIO_PARAMS)
        event = asyncio.Event()
        scenario.transport = AbortTrigger(
            scenario.transport, event, round_id=2, after_probes=100
        )
        store = MeasurementStore(aborted)
        with pytest.raises(CampaignInterrupted) as excinfo:
            Campaign(scenario, store=store, config=small_config()).run(
                abort_event=event
            )
        assert excinfo.value.day == 3
        store.close()

        reopened = MeasurementStore(aborted)
        result = Campaign(
            ec2_scenario(**SCENARIO_PARAMS),
            store=reopened,
            config=small_config(),
        ).resume()
        assert result.summaries          # finished the remaining rounds
        reopened.close()

        assert db_snapshot(aborted) == db_snapshot(reference)

    def test_crash_resume_under_chaos_is_byte_equivalent(self, tmp_path):
        """Seeded fault injection replays identically across the crash:
        the resumed campaign sees the same faults the uninterrupted one
        would have."""
        def chaotic_scenario():
            scenario = ec2_scenario(**SCENARIO_PARAMS)
            scenario.transport = FaultyTransport(
                scenario.transport, chaos_plan(9, rate=0.15)
            )
            return scenario

        reference = str(tmp_path / "chaos-ref.sqlite")
        Campaign(
            chaotic_scenario(),
            store=MeasurementStore(reference),
            config=small_config(),
        ).run()

        crashed = str(tmp_path / "chaos-crashed.sqlite")
        scenario = chaotic_scenario()
        victim = ec2_scenario(**SCENARIO_PARAMS).targets[100]
        plan = FaultPlan(seed=2, rules=(
            FaultRule(FaultKind.CONNECT_TIMEOUT, ips={victim}, rounds={3}),
        ))
        scenario.transport = CrashOnFault(scenario.transport, plan)
        store = MeasurementStore(crashed)
        with pytest.raises(RuntimeError):
            Campaign(scenario, store=store, config=small_config()).run()
        del store

        reopened = MeasurementStore(crashed)
        Campaign(
            chaotic_scenario(), store=reopened, config=small_config()
        ).resume()
        reopened.close()

        assert db_snapshot(crashed) == db_snapshot(reference)

    def test_resume_without_metadata_raises(self):
        campaign = Campaign(ec2_scenario(total_ips=64, duration_days=3))
        with pytest.raises(ValueError, match="nothing to resume"):
            campaign.resume()

    def test_completed_campaign_resume_is_noop(self, tmp_path):
        path = str(tmp_path / "done.sqlite")
        scenario = ec2_scenario(**SCENARIO_PARAMS)
        Campaign(
            scenario, store=MeasurementStore(path), config=small_config()
        ).run()
        before = db_snapshot(path)
        store = MeasurementStore(path)
        result = Campaign(
            ec2_scenario(**SCENARIO_PARAMS), store=store,
            config=small_config(),
        ).resume()
        assert result.summaries == []
        store.close()
        assert db_snapshot(path) == before


# ----------------------------------------------------------------------
# CLI: repro resume + signal handling


class TestCliResume:
    def test_resume_completes_interrupted_campaign(self, tmp_path, capsys):
        params = {"cloud": "ec2", "ips": 256, "seed": 5, "days": 12,
                  "chaos_rate": 0.0, "chaos_seed": 0}
        reference = str(tmp_path / "ref.sqlite")
        assert main([
            "simulate", "--cloud", "ec2", "--ips", "256", "--seed", "5",
            "--days", "12", "--out", reference,
        ]) == 0

        # Interrupt a second run mid-campaign (the same store layout
        # `simulate` leaves behind after a SIGINT checkpoint).
        interrupted = str(tmp_path / "interrupted.sqlite")
        scenario = ec2_scenario(**SCENARIO_PARAMS)
        event = asyncio.Event()
        scenario.transport = AbortTrigger(
            scenario.transport, event, round_id=2, after_probes=10
        )
        store = MeasurementStore(interrupted)
        store.set_meta("simulate_args", json.dumps(params))
        with pytest.raises(CampaignInterrupted):
            Campaign(scenario, store=store).run(abort_event=event)
        store.close()
        capsys.readouterr()

        assert main(["resume", interrupted]) == 0
        output = capsys.readouterr().out
        assert "resuming EC2" in output
        assert "round database written" in output
        assert db_snapshot(interrupted) == db_snapshot(reference)

    def test_resume_refuses_non_campaign_database(self, tmp_path, capsys):
        path = str(tmp_path / "plain.sqlite")
        MeasurementStore(path).close()
        assert main(["resume", path]) == 1
        assert "not resumable" in capsys.readouterr().err

    def test_abort_handler_sets_event_then_forces(self):
        import signal

        from repro.cli import _install_abort_handler

        old_int = signal.getsignal(signal.SIGINT)
        old_term = signal.getsignal(signal.SIGTERM)
        try:
            event = _install_abort_handler()
            handler = signal.getsignal(signal.SIGINT)
            assert handler is signal.getsignal(signal.SIGTERM)
            assert not event.is_set()
            handler(signal.SIGINT, None)
            assert event.is_set()
            with pytest.raises(KeyboardInterrupt):
                handler(signal.SIGINT, None)     # second ^C force-quits
        finally:
            signal.signal(signal.SIGINT, old_int)
            signal.signal(signal.SIGTERM, old_term)
