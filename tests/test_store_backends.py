"""Backend conformance: every storage engine honours the same contract.

The suite runs the journaled round protocol, quarantine, verification,
and the materialized read models against each registered backend, then
proves **row equivalence**: the same seeded campaign written through
sqlite and through the columnar engine produces identical records,
round statistics, per-IP histories, and cluster aggregates — including
when the rounds run across supervised worker processes and when a
write crashes between shards and resumes.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.core.faults import ProcFaultKind, proc_chaos_plan
from repro.core.records import PageFeatures, QuarantineRecord, digest_of
from repro.core.store import (
    BACKENDS,
    ColumnarStore,
    MeasurementStore,
    default_backend,
    detect_backend,
    open_store,
)
from repro.analysis.dataset import _OBSERVATION_COLUMNS
from repro.core.store.base import (
    COLUMN_NAMES,
    PROJECTION_NAMES,
    StoreBackend,
    rows_checksum,
)
from repro.workloads import Campaign, SimTransportFactory, ec2_scenario
from _fakes import write_round
from test_recovery import SCENARIO_PARAMS, small_config
from test_store import record
from test_workers import SIM_PARAMS, mp_config

ALL_BACKENDS = sorted(BACKENDS)


def store_path(backend: str, tmp_path, name: str = "db") -> str:
    suffix = ".col" if backend == "columnar" else ".sqlite"
    return str(tmp_path / f"{name}{suffix}")


def make_store(backend: str, tmp_path, name: str = "db"):
    return open_store(store_path(backend, tmp_path, name), backend=backend)


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    return request.param


def tamper_base_row(store, round_id: int, ip: int) -> None:
    """Flip one base-table cell behind the journal's back, per engine."""
    if store.BACKEND == "sqlite":
        table = store.round_info(round_id).table_name
        store._conn.execute(
            f"UPDATE {table} SET title = 'tampered' WHERE ip = ?", (ip,)
        )
        store._conn.commit()
        return
    round_dir = store._round_dir(round_id)
    shard_file = sorted(round_dir.glob("s*.json"))[0]
    data = json.loads(shard_file.read_text(encoding="utf-8"))
    column = data["columns"]["title"]
    column[0] = "tampered"
    shard_file.write_text(json.dumps(data), encoding="utf-8")
    store.close()


def tamper_view(store, round_id: int, view: str = "round_summary") -> None:
    """Corrupt one materialized read model of a round, per engine."""
    if store.BACKEND == "sqlite":
        store._conn.execute(
            {
                "round_summary": "UPDATE view_round_summary"
                                 " SET responsive = responsive + 5",
                "ip_history": "UPDATE view_ip_history SET title = 'stale'",
                "cluster_agg": "UPDATE view_cluster_agg SET n = n + 1",
            }[view] + " WHERE round_id = ?",
            (round_id,),
        )
        store._conn.commit()
        return
    views_file = store._round_dir(round_id) / "views.json"
    views = json.loads(views_file.read_text(encoding="utf-8"))
    if view == "round_summary":
        views["summary"]["responsive"] += 5
    elif view == "ip_history":
        for row in views["ip"].values():
            row["title"] = "stale"
    else:
        for pairs in views["agg"].values():
            for pair in pairs:
                pair[1] += 1
    views_file.write_text(json.dumps(views), encoding="utf-8")
    store.close()


class TestProtocolConformance:
    """The round journal contract, identically on every engine."""

    def test_begin_write_finalize(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.begin_round(1, 0, 10, shard_size=2)
        assert store.open_rounds()[0].round_id == 1
        assert store.rounds() == []            # invisible until finalized
        store.write_shard(1, 0, [record(1, 1, 0), record(2, 1, 0)])
        store.write_shard(1, 1, [record(3, 1, 0)], errors=2, operations=9)
        info = store.finalize_round(1)
        assert info.responsive_count == 3
        assert info.error_count == 2
        assert store.open_rounds() == []
        assert store.responsive_ips(1) == {1, 2, 3}
        store.close()

    def test_write_shard_is_idempotent(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.begin_round(1, 0, 10)
        assert store.write_shard(1, 0, [record(1, 1, 0)]) is True
        assert store.write_shard(1, 0, [record(1, 1, 0)]) is False
        store.finalize_round(1)
        assert len(list(store.records(1))) == 1
        # Idempotent re-write never double-folds the read models.
        assert store.round_stats(1)["responsive"] == 1
        store.close()

    def test_crash_between_shards_resumes_on_reopen(self, backend, tmp_path):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        store.begin_round(1, 0, 2, shard_size=1)
        store.write_shard(1, 0, [record(7, 1, 0)])
        del store                          # crash: never finalized/closed

        reopened = open_store(path)        # engine auto-detected
        assert reopened.BACKEND == backend
        assert reopened.rounds() == []
        assert reopened.completed_shards(1) == {0}
        reopened.write_shard(1, 1, [record(8, 1, 0)])
        assert reopened.finalize_round(1).responsive_count == 2
        assert reopened.verify_round(1).ok
        reopened.close()

    def test_quarantine_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        write_round(store, 1, 0, 10, [record(5, 1, 0)], quarantine=[
            QuarantineRecord(
                ip=5, round_id=1, timestamp=0, stage="extract",
                verdict="trapped", error_class="ValueError", error="boom",
            ),
        ])
        (entry,) = store.quarantine_rows(1)
        assert (entry.ip, entry.stage, entry.error_class) == (
            5, "extract", "ValueError"
        )
        assert entry.entry_id is not None and not entry.replayed
        assert store.quarantine_count(1) == 1
        store.mark_quarantine_replayed(entry.entry_id)
        assert store.quarantine_rows(1, include_replayed=False) == []
        (replayed,) = store.quarantine_rows(1)
        assert replayed.replayed
        store.close()

    def test_meta_round_trip(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        assert store.get_meta("k") is None
        store.set_meta("k", "v1")
        store.set_meta("k", "v2")
        assert store.get_meta("k") == "v2"
        store.close()

    def test_readonly_reads_and_refuses_writes(self, backend, tmp_path):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        write_round(store, 1, 0, 10, [record(3, 1, 0)])
        store.close()
        reader = open_store(path, readonly=True)
        assert reader.BACKEND == backend
        assert reader.responsive_ips(1) == {3}
        assert reader.round_stats(1)["responsive"] == 1
        with pytest.raises(Exception):
            write_round(reader, 2, 3, 10, [])
        with pytest.raises(ValueError):
            reader.rebuild_views()
        reader.close()

    def test_readonly_missing_store_raises(self, backend, tmp_path):
        path = store_path(backend, tmp_path, "absent")
        with pytest.raises((sqlite3.OperationalError, FileNotFoundError)):
            open_store(path, backend=backend, readonly=True)


class TestVerification:
    def test_clean_round_verifies_including_views(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        write_round(store, 1, 0, 10, [record(i, 1, 0) for i in range(1, 6)])
        report = store.verify_round(1)
        assert report.ok and report.view_issues == []
        store.close()

    def test_tampered_base_row_is_detected(self, backend, tmp_path):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        write_round(store, 1, 0, 10, [record(i, 1, 0) for i in range(1, 4)])
        tamper_base_row(store, 1, 1)
        reopened = open_store(path)
        report = reopened.verify_round(1)
        assert not report.ok
        assert report.corrupt
        reopened.close()

    def test_stale_view_is_detected_and_rebuildable(self, backend, tmp_path):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        write_round(store, 1, 0, 10, [record(i, 1, 0) for i in range(1, 4)])
        tamper_view(store, 1)
        reopened = open_store(path)
        report = reopened.verify_round(1)
        assert not report.ok
        assert any("round_summary" in issue for issue in report.view_issues)
        # The escape hatch restores the invariant from base data.
        assert reopened.rebuild_views() >= 1
        assert reopened.verify_round(1).ok
        reopened.close()

    @pytest.mark.parametrize("view", ["ip_history", "cluster_agg"])
    def test_stale_view_is_named_alone(self, backend, tmp_path, view):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        write_round(store, 1, 0, 10, [record(i, 1, 0) for i in range(1, 4)])
        tamper_view(store, 1, view)
        reopened = open_store(path)
        report = reopened.verify_round(1)
        assert report.view_issues == [view]
        assert not report.corrupt and not report.ok
        reopened.rebuild_views()
        assert reopened.verify_round(1).ok
        reopened.close()


class TestReadModels:
    def test_round_stats_come_from_the_summary_view(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        write_round(store, 1, 0, 10, [record(i, 1, 0) for i in range(1, 5)])
        stats = store.round_stats(1)
        assert stats == {
            "responsive": 4, "available": 4, "fetched": 4, "quarantined": 0,
        }
        store.close()

    def test_ip_history_rows_are_light_and_ordered(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        write_round(store, 1, 0, 10, [record(5, 1, 0, "a")])
        write_round(store, 2, 3, 10, [])
        write_round(store, 3, 6, 10, [record(5, 3, 6, "b")])
        rows = store.ip_history_rows(5)
        assert [(r["round_id"], r["timestamp"], r["title"]) for r in rows] \
            == [(1, 0, "a"), (3, 6, "b")]
        assert rows[0]["open_ports"] == "80"
        assert rows[0]["status_code"] == 200
        store.close()

    def test_aggregates_match_between_view_and_rebuild(self, backend,
                                                       tmp_path):
        store = make_store(backend, tmp_path)
        titles = ["a", "a", "a", "b", "b", "c"]
        write_round(store, 
            1, 0, 10,
            [record(i + 1, 1, 0, t) for i, t in enumerate(titles)],
        )
        incremental = store.aggregate_column(1, "title", limit=10)
        assert incremental[:3] == [("a", 3), ("b", 2), ("c", 1)]
        histories = {ip: store.ip_history_rows(ip) for ip in range(1, 7)}
        store.rebuild_views()
        assert store.aggregate_column(1, "title", limit=10) == incremental
        assert {
            ip: store.ip_history_rows(ip) for ip in range(1, 7)
        } == histories
        assert store.verify_round(1).ok
        store.close()

    def test_update_features_refolds_views(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        write_round(store, 1, 0, 10, [record(5, 1, 0, "before"),
                                     record(6, 1, 0, "other")])
        store.update_features(1, 5, PageFeatures(title="after", simhash=1))
        (row,) = [r for r in store.ip_history_rows(5)]
        assert row["title"] == "after"
        values = dict(store.aggregate_column(1, "title", limit=10))
        assert values == {"after": 1, "other": 1}
        assert store.verify_round(1).ok
        store.close()

    def test_sqlite_rebuild_is_a_byte_level_noop(self, tmp_path):
        """Rebuild replays the write path's fold over the shard journal,
        so on a healthy store it rewrites the views byte for byte —
        quarantine counts, a replayed row and an open round included."""
        store = make_store("sqlite", tmp_path)

        def hostile(ip, round_id, timestamp):
            return QuarantineRecord(
                ip=ip, round_id=round_id, timestamp=timestamp,
                stage="extract", verdict="trapped", error_class="ValueError",
            )

        store.begin_round(1, 0, 6, shard_size=3)
        store.write_shard(1, 0, [record(ip, 1, 0, f"t{ip % 2}")
                                 for ip in (1, 2, 3)],
                          quarantine=[hostile(2, 1, 0)])
        store.write_shard(1, 1, [record(ip, 1, 0, "t0") for ip in (4, 5)],
                          quarantine=[hostile(4, 1, 0), hostile(5, 1, 0)])
        store.finalize_round(1)
        write_round(store, 2, 3, 6, [record(ip, 2, 3, "u") for ip in (1, 6)])
        write_round(store, 3, 6, 6, [])
        store.begin_round(4, 9, 6, shard_size=3)
        store.write_shard(4, 0, [record(7, 4, 9, "open")],
                          quarantine=[hostile(7, 4, 9)])
        assert store.update_features(1, 2, PageFeatures(title="t1",
                                                         server="fixed"))

        def views():
            return [
                line for line in store._conn.iterdump()
                if line.startswith('INSERT INTO "view_')
            ]

        before = views()
        assert any("view_round_summary" in line for line in before)
        assert store.rebuild_views() == 4
        assert views() == before
        for round_id in (1, 2, 3, 4):
            assert store.verify_round(round_id).ok, round_id
        assert store.round_stats(1) == {
            "responsive": 5, "available": 5, "fetched": 5, "quarantined": 3,
        }
        assert dict(store.aggregate_column(1, "title")) == {"t1": 3, "t0": 2}
        store.close()


class TestEngineSelection:
    def test_detects_each_backend_on_disk(self, backend, tmp_path):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        write_round(store, 1, 0, 1, [])
        store.close()
        assert detect_backend(path) == backend

    def test_memory_is_always_sqlite(self):
        assert detect_backend(":memory:") == "sqlite"
        store = open_store(":memory:")
        assert isinstance(store, MeasurementStore)
        store.close()

    def test_env_selects_default_backend(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE_BACKEND", "columnar")
        assert default_backend() == "columnar"
        store = open_store(str(tmp_path / "fresh"))
        assert isinstance(store, ColumnarStore)
        store.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_store(str(tmp_path / "x"), backend="parquet")


# ----------------------------------------------------------------------
# cross-backend row equivalence over a real seeded campaign


def campaign_snapshot(path: str) -> dict:
    """Everything an analysis or the serve layer can observe, digested
    through the engine-neutral interface."""
    with open_store(path, readonly=True) as store:
        snapshot = {
            "rounds": [
                (i.round_id, i.timestamp, i.targets_probed,
                 i.responsive_count, i.degraded, i.error_count, i.status)
                for i in store.rounds()
            ],
        }
        ips = set()
        for info in store.rounds():
            rid = info.round_id
            rows = [r.to_row() for r in store.records(rid)]
            snapshot[f"rows:{rid}"] = rows_checksum(rows)
            snapshot[f"stats:{rid}"] = store.round_stats(rid)
            for column in ("server", "template", "status_code"):
                snapshot[f"agg:{rid}:{column}"] = store.aggregate_column(
                    rid, column, limit=50
                )
            ips |= store.responsive_ips(rid)
        snapshot["histories"] = {
            ip: store.ip_history_rows(ip) for ip in sorted(ips)
        }
    return snapshot


def run_campaign(path: str, backend: str, *, config=None, chaos=None):
    store = open_store(path, backend=backend)
    kwargs = {}
    if config is not None and config.workers.count > 1:
        kwargs["transport_factory"] = SimTransportFactory(SIM_PARAMS)
    Campaign(
        ec2_scenario(**SCENARIO_PARAMS),
        store=store,
        config=config or small_config(),
        proc_chaos=chaos,
        **kwargs,
    ).run()
    store.close()


@pytest.fixture(scope="module")
def seed_campaigns(tmp_path_factory):
    """The seed campaign written serially through each engine:
    backend name -> store path."""
    root = tmp_path_factory.mktemp("seed")
    paths = {name: store_path(name, root) for name in ALL_BACKENDS}
    for name, path in paths.items():
        run_campaign(path, name)
    return paths


@pytest.fixture(scope="module")
def sqlite_reference(seed_campaigns):
    return campaign_snapshot(seed_campaigns["sqlite"])


def projection_oracle(store, round_id: int, names) -> list[tuple]:
    """What ``columns()`` must yield: the named cells of every record
    of ``records()``, in its order; ``body_digest`` is the body's
    ``digest_of`` (None without a body)."""
    oracle = []
    for rec in store.records(round_id):
        row = rec.to_row()
        body = row["body"]
        row["body_digest"] = None if body is None else digest_of(body)
        oracle.append(tuple(row[name] for name in names))
    return oracle


def merge_two_partition_journals(store, tmp_path) -> None:
    """Round 1 of *store*, merged the way the worker supervisor merges
    partition journals (``shard_records`` → ``write_shard``) with the
    second partition landing first — commit order is not ip order."""
    store.begin_round(1, 0, 8, shard_size=2)
    journals = []
    for partition, shards in enumerate([(0, 1), (2, 3)]):
        journal = MeasurementStore(str(tmp_path / f"p{partition}.sqlite"))
        journal.begin_round(1, 0, 8, shard_size=2)
        for shard in shards:
            journal.write_shard(1, shard, [
                record(ip, 1, 0, f"t{ip}")
                for ip in (2 * shard + 1, 2 * shard + 2)
            ])
        journals.append(journal)
    for journal in reversed(journals):
        for entry in journal.shard_journal(1):
            store.write_shard(
                1, entry.shard_index,
                journal.shard_records(1, entry.shard_index),
            )
        journal.close()
    store.finalize_round(1)


class TestColumnsProjection:
    """``columns()`` is ``records()`` narrowed, on every engine."""

    @pytest.mark.parametrize(
        "names",
        [(name,) for name in PROJECTION_NAMES]
        + [_OBSERVATION_COLUMNS, COLUMN_NAMES],
        ids=lambda names: names[0] if len(names) == 1 else str(len(names)),
    )
    def test_equals_records_narrowed(self, backend, seed_campaigns, names):
        with open_store(seed_campaigns[backend], readonly=True) as store:
            rounds = store.rounds()
            assert rounds
            for info in rounds:
                oracle = projection_oracle(store, info.round_id, names)
                assert list(store.columns(info.round_id, names)) == oracle
                # The base-class definition is that same oracle.
                assert list(
                    StoreBackend.columns(store, info.round_id, names)
                ) == oracle

    def test_order_is_records_order_after_partition_merge(
        self, backend, tmp_path
    ):
        store = make_store(backend, tmp_path)
        merge_two_partition_journals(store, tmp_path)
        ips = [rec.ip for rec in store.records(1)]
        assert sorted(ips) == list(range(1, 9))
        if backend == "sqlite":
            assert ips != sorted(ips)      # the case ORDER BY rowid is for
        assert [ip for (ip,) in store.columns(1, ("ip",))] == ips
        assert list(store.columns(1, ("ip", "title"))) == [
            (ip, f"t{ip}") for ip in ips
        ]
        assert list(store.columns(1, COLUMN_NAMES)) == projection_oracle(
            store, 1, COLUMN_NAMES
        )
        store.close()

    @pytest.mark.parametrize("names", [
        ("ip; DROP TABLE rounds",),
        ("body IS NOT NULL",),
        ("ip", "shard_index"),
        ("IP",),
        ("*",),
        (),
    ])
    def test_unknown_names_are_refused_before_any_read(
        self, backend, tmp_path, names
    ):
        store = make_store(backend, tmp_path)
        write_round(store, 1, 0, 10, [record(1, 1, 0)])
        # Refused at the call, not at the first next(): nothing ran.
        with pytest.raises(ValueError, match="column"):
            store.columns(1, names)
        with pytest.raises(ValueError, match="column"):
            StoreBackend.columns(store, 1, names)
        assert [info.round_id for info in store.rounds()] == [1]
        assert list(store.columns(1, ("ip",))) == [(1,)]
        store.close()

    def test_readonly_handle_empty_round_and_unknown_round(
        self, backend, tmp_path
    ):
        path = store_path(backend, tmp_path)
        store = open_store(path, backend=backend)
        write_round(store, 1, 0, 10, [record(3, 1, 0, "a")])
        write_round(store, 2, 3, 10, [])
        store.begin_round(3, 6, 10)             # still in progress
        store.close()
        with open_store(path, readonly=True) as reader:
            assert list(reader.columns(1, ("title", "ip"))) == [("a", 3)]
            assert list(reader.columns(2, COLUMN_NAMES)) == []
            for missing in (3, 99):
                with pytest.raises(KeyError):
                    list(reader.records(missing))
                with pytest.raises(KeyError):
                    list(reader.columns(missing, ("ip",)))


class TestCrossBackendEquivalence:
    def test_columnar_campaign_matches_sqlite(self, tmp_path,
                                              sqlite_reference):
        path = store_path("columnar", tmp_path, "campaign")
        run_campaign(path, "columnar")
        assert campaign_snapshot(path) == sqlite_reference
        with open_store(path, readonly=True) as store:
            for info in store.rounds():
                assert store.verify_round(info.round_id).ok

    def test_columnar_two_worker_campaign_matches(self, tmp_path,
                                                  sqlite_reference):
        """The supervised merge path folds the columnar read models
        shard by shard, identically to the in-process writer."""
        path = store_path("columnar", tmp_path, "mp")
        run_campaign(path, "columnar", config=mp_config(2))
        assert campaign_snapshot(path) == sqlite_reference
        with open_store(path, readonly=True) as store:
            for info in store.rounds():
                assert store.verify_round(info.round_id).ok

    @pytest.mark.chaos
    def test_columnar_survives_worker_sigkill(self, tmp_path,
                                              sqlite_reference):
        """A worker SIGKILLed mid-partition restarts and the merged
        columnar store — views included — still matches serial sqlite."""
        path = store_path("columnar", tmp_path, "killed")
        chaos = proc_chaos_plan(
            11, kinds=(ProcFaultKind.KILL_MID_SHARD,),
            rounds={2}, partitions={0}, attempts={0},
        )
        run_campaign(path, "columnar", config=mp_config(2), chaos=chaos)
        assert campaign_snapshot(path) == sqlite_reference
        with open_store(path, readonly=True) as store:
            for info in store.rounds():
                assert store.verify_round(info.round_id).ok


def stored_bodies(path: str) -> list[bytes]:
    """The digests in a sqlite store's ``bodies`` table."""
    conn = sqlite3.connect(path)
    try:
        return [row[0] for row in conn.execute("SELECT digest FROM bodies")]
    finally:
        conn.close()


class TestStoredBodies:
    """sqlite keeps each distinct body once; on every engine, every
    stored body is referenced and ``body_digest`` names it."""

    def test_one_body_row_per_distinct_digest(self, seed_campaigns):
        path = seed_campaigns["sqlite"]
        with open_store(path, readonly=True) as store:
            digests = [
                digest
                for info in store.rounds()
                for (digest,) in store.columns(
                    info.round_id, ("body_digest",)
                )
                if digest is not None
            ]
        stored = stored_bodies(path)
        assert len(stored) == len(set(stored))
        assert set(stored) == set(digests)
        assert len(stored) < len(digests)      # rounds share bodies

    def test_no_orphan_body(self, backend, seed_campaigns):
        with open_store(seed_campaigns[backend], readonly=True) as store:
            assert store.orphan_bodies() == 0

    def test_two_worker_merge_stores_the_same_bodies(
        self, tmp_path, seed_campaigns
    ):
        path = store_path("sqlite", tmp_path, "mp")
        run_campaign(path, "sqlite", config=mp_config(2))
        assert sorted(stored_bodies(path)) == sorted(
            stored_bodies(seed_campaigns["sqlite"])
        )
        with open_store(path, readonly=True) as store:
            assert store.orphan_bodies() == 0
