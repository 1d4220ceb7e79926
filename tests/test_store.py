"""Tests for the per-round measurement store."""

from __future__ import annotations

import gc
import random
import sqlite3
import tracemalloc
from collections import Counter

import pytest

from repro.analysis import Dataset
from repro.cli import main
from repro.core.records import (
    FetchResult,
    FetchStatus,
    PageFeatures,
    ProbeOutcome,
    ProbeStatus,
    digest_of,
)
from repro.core.records import RoundRecord
from repro.core.store import (
    MeasurementStore,
    UnsupportedStoreFormat,
    open_store,
)
from repro.core.store.base import COLUMN_NAMES, COLUMNS
from repro.workloads import Campaign, ec2_scenario
from _fakes import python_calls, write_round


def record(ip: int, round_id: int, timestamp: int, title: str = "t") -> RoundRecord:
    return RoundRecord(
        ip=ip,
        round_id=round_id,
        timestamp=timestamp,
        probe=ProbeOutcome(
            ip=ip, status=ProbeStatus.RESPONSIVE, open_ports=frozenset({80})
        ),
        fetch=FetchResult(
            ip=ip, status=FetchStatus.OK, url=f"http://{ip}/",
            status_code=200, headers={"Content-Type": "text/html"},
            body=f"<title>{title}</title>",
        ),
        features=PageFeatures(title=title, simhash=ip * 7),
    )


class TestMeasurementStore:
    def test_write_and_read_round(self):
        store = MeasurementStore()
        info = write_round(store, 1, 0, 100, [record(1, 1, 0), record(2, 1, 0)])
        assert info.responsive_count == 2
        assert info.targets_probed == 100
        records = list(store.records(1))
        assert {r.ip for r in records} == {1, 2}
        assert records[0].features is not None

    def test_one_table_per_round(self):
        """§4: each round of scanning uses a distinct table with the
        round's timestamp in its name."""
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0)])
        write_round(store, 2, 3, 10, [record(1, 2, 3)])
        tables = {info.table_name for info in store.rounds()}
        assert tables == {"round_00000", "round_00003"}

    def test_rounds_sorted_by_timestamp(self):
        store = MeasurementStore()
        write_round(store, 2, 9, 10, [])
        write_round(store, 1, 3, 10, [])
        assert [info.timestamp for info in store.rounds()] == [3, 9]

    def test_history_lookup(self):
        """The core WhoWas query: an IP's status over time."""
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(5, 1, 0, "a")])
        write_round(store, 2, 3, 10, [])                      # unresponsive
        write_round(store, 3, 6, 10, [record(5, 3, 6, "b")])
        history = store.history(5)
        assert [r.timestamp for r in history] == [0, 6]
        assert [r.features.title for r in history] == ["a", "b"]

    def test_record_lookup(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(5, 1, 0)])
        assert store.record(1, 5) is not None
        assert store.record(1, 6) is None

    def test_missing_round(self):
        store = MeasurementStore()
        with pytest.raises(KeyError):
            store.round_info(9)

    def test_responsive_ips(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0), record(9, 1, 0)])
        assert store.responsive_ips(1) == {1, 9}

    def test_context_manager(self):
        with MeasurementStore() as store:
            write_round(store, 1, 0, 1, [])
        with pytest.raises(Exception):
            store.rounds()

    def test_file_backed(self, tmp_path):
        path = str(tmp_path / "whowas.sqlite")
        store = MeasurementStore(path)
        write_round(store, 1, 0, 10, [record(3, 1, 0)])
        store.close()
        reopened = MeasurementStore(path)
        assert reopened.responsive_ips(1) == {3}
        reopened.close()


class TestRoundIsolation:
    """§4: one table per round — later writes never disturb earlier
    rounds' lookups."""

    def test_writing_round_n_never_mutates_round_n_minus_1(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(5, 1, 0, "before")])
        baseline = store.record(1, 5)
        baseline_rows = list(store.records(1))

        # Round 2 re-observes the same IP with different content, adds a
        # new IP, and drops nothing from round 1.
        write_round(store, 2, 3, 10, [record(5, 2, 3, "after"),
                                     record(6, 2, 3, "new")])

        assert store.record(1, 5) == baseline
        assert list(store.records(1)) == baseline_rows
        assert store.responsive_ips(1) == {5}
        assert store.record(1, 6) is None
        assert store.record(2, 5).features.title == "after"

    def test_many_rounds_stay_isolated(self):
        store = MeasurementStore()
        for n in range(1, 6):
            write_round(store, n, n * 3, 10, [record(ip, n, n * 3, f"r{n}")
                                             for ip in range(n)])
        for n in range(1, 6):
            rows = list(store.records(n))
            assert {r.ip for r in rows} == set(range(n))
            assert all(r.features.title == f"r{n}" for r in rows)

    def test_round_info_ordering_is_stable(self):
        """Rounds written out of chronological order come back sorted
        by timestamp, with round_id as a deterministic tiebreak."""
        store = MeasurementStore()
        for round_id, ts in ((3, 6), (1, 0), (2, 3)):
            write_round(store, round_id, ts, 10, [])
        assert [i.round_id for i in store.rounds()] == [1, 2, 3]
        # Re-listing gives the identical sequence every time.
        assert store.rounds() == store.rounds()

    def test_degraded_flag_round_trips(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [], degraded=False)
        write_round(store, 2, 3, 10, [], degraded=True, error_count=7)
        infos = store.rounds()
        assert [i.degraded for i in infos] == [False, True]
        assert infos[1].error_count == 7
        assert store.round_info(2).degraded is True

    def test_degraded_flag_survives_reopen(self, tmp_path):
        path = str(tmp_path / "chaos.sqlite")
        store = MeasurementStore(path)
        write_round(store, 1, 0, 10, [], degraded=True, error_count=3)
        store.close()
        reopened = MeasurementStore(path)
        info = reopened.round_info(1)
        assert info.degraded is True and info.error_count == 3
        reopened.close()


def _old_rounds_table(path: str, columns: str, rows: list[tuple]) -> None:
    conn = sqlite3.connect(path)
    conn.execute(f"CREATE TABLE rounds ({columns})")
    for row in rows:
        conn.execute(
            f"INSERT INTO rounds VALUES ({', '.join('?' for _ in row)})", row
        )
    conn.commit()
    conn.close()


def _pre_resilience(path: str) -> None:
    _old_rounds_table(
        path,
        "round_id INTEGER PRIMARY KEY, timestamp INTEGER NOT NULL,"
        " targets_probed INTEGER NOT NULL, responsive_count INTEGER NOT NULL",
        [(1, 0, 10, 0)],
    )


def _pre_journal(path: str) -> None:
    _old_rounds_table(
        path,
        "round_id INTEGER PRIMARY KEY, timestamp INTEGER NOT NULL,"
        " targets_probed INTEGER NOT NULL, responsive_count INTEGER NOT NULL,"
        " degraded INTEGER NOT NULL DEFAULT 0,"
        " error_count INTEGER NOT NULL DEFAULT 0",
        [(1, 0, 10, 0, 0, 0), (2, 3, 10, 0, 1, 4)],
    )


def _pre_views(path: str) -> None:
    """Today's columns and journal, one round, no read-model tables."""
    store = MeasurementStore(path)
    write_round(store, 1, 0, 10, [record(1, 1, 0), record(2, 1, 0)])
    store.close()
    conn = sqlite3.connect(path)
    for table in ("view_ip_history", "view_round_summary",
                  "view_cluster_agg"):
        conn.execute(f"DROP TABLE {table}")
    conn.commit()
    conn.close()


def _pre_bodies(path: str) -> None:
    """The read-model format with every body inline: the round table
    has a ``body TEXT`` column in place of ``body_digest`` and there is
    no ``bodies`` table."""
    store = MeasurementStore(path)
    write_round(store, 1, 0, 10, [record(1, 1, 0), record(2, 1, 0)])
    store.close()
    conn = sqlite3.connect(path)
    columns = ", ".join(f"{name} {sql}" for name, sql in COLUMNS)
    conn.execute(
        f"CREATE TABLE inline ({columns},"
        " shard_index INTEGER NOT NULL DEFAULT 0)"
    )
    select = ", ".join(
        "b.body" if name == "body" else f"t.{name}" for name in COLUMN_NAMES
    )
    conn.execute(
        f"INSERT INTO inline SELECT {select}, t.shard_index"
        " FROM round_00000 t LEFT JOIN bodies b ON b.digest = t.body_digest"
    )
    conn.execute("DROP TABLE round_00000")
    conn.execute("ALTER TABLE inline RENAME TO round_00000")
    conn.execute("DROP TABLE bodies")
    conn.commit()
    conn.close()


PRE_READ_MODEL_SHAPES = {
    "pre_resilience": _pre_resilience,
    "pre_journal": _pre_journal,
    "pre_views": _pre_views,
}

REFUSAL = "before the materialized read models were added"

BODIES_REFUSAL = "store page bodies inline"


def pre_read_model_database(tmp_path, shape: str = "pre_views") -> str:
    path = str(tmp_path / f"{shape}.sqlite")
    PRE_READ_MODEL_SHAPES[shape](path)
    return path


def pre_bodies_database(tmp_path) -> str:
    path = str(tmp_path / "pre_bodies.sqlite")
    _pre_bodies(path)
    return path


def schema(path: str) -> list[tuple]:
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT type, name, sql FROM sqlite_master ORDER BY name"
        ).fetchall()
    finally:
        conn.close()


class TestStoreFormat:
    """Stores are readable from the read-model format on: an older file
    is refused before any DDL runs, never migrated."""

    @pytest.mark.parametrize("readonly", [False, True],
                             ids=["writer", "readonly"])
    @pytest.mark.parametrize("shape", sorted(PRE_READ_MODEL_SHAPES))
    def test_pre_read_model_database_is_refused(self, tmp_path, shape,
                                                readonly):
        path = pre_read_model_database(tmp_path, shape)
        before = schema(path)
        with pytest.raises(UnsupportedStoreFormat, match=REFUSAL) as caught:
            open_store(path, readonly=readonly)
        assert isinstance(caught.value, ValueError)
        assert schema(path) == before

    def test_empty_rounds_table_opens_and_gains_the_schema(self, tmp_path):
        """A partition journal torn mid-creation: tables, no rounds."""
        reference = str(tmp_path / "fresh.sqlite")
        MeasurementStore(reference).close()
        (rounds_sql,) = [sql for _, name, sql in schema(reference)
                         if name == "rounds"]
        path = str(tmp_path / "torn.sqlite")
        conn = sqlite3.connect(path)
        conn.execute(rounds_sql)
        conn.commit()
        conn.close()
        store = MeasurementStore(path)
        assert schema(path) == schema(reference)
        write_round(store, 1, 0, 10, [record(1, 1, 0)])
        assert store.verify_round(1).ok
        assert store.round_stats(1)["responsive"] == 1
        store.close()

    @pytest.mark.parametrize("readonly", [False, True],
                             ids=["writer", "readonly"])
    def test_pre_bodies_database_is_refused(self, tmp_path, readonly):
        path = pre_bodies_database(tmp_path)
        before = schema(path)
        with pytest.raises(UnsupportedStoreFormat, match=BODIES_REFUSAL):
            open_store(path, readonly=readonly)
        assert schema(path) == before

    @pytest.mark.parametrize(
        "command", ["serve", "verify", "report", "resume", "rebuild-views"]
    )
    def test_cli_refuses_in_one_line(self, tmp_path, capsys, command):
        self.assert_cli_refuses(
            pre_read_model_database(tmp_path), command, REFUSAL, capsys
        )

    @pytest.mark.parametrize(
        "command", ["serve", "verify", "report", "resume", "rebuild-views",
                    "lookup", "aggregate"]
    )
    def test_cli_refuses_pre_bodies_in_one_line(self, tmp_path, capsys,
                                                command):
        self.assert_cli_refuses(
            pre_bodies_database(tmp_path), command, BODIES_REFUSAL, capsys
        )

    @staticmethod
    def assert_cli_refuses(path, command, refusal, capsys):
        extra = {"serve": ["--port", "0"], "lookup": ["54.0.0.1"],
                 "aggregate": ["--cloud", "EC2"]}
        assert main([command, path] + extra.get(command, [])) == 1
        err = capsys.readouterr().err
        assert f"{path}: cannot open database" in err
        assert refusal in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def current_store_marked_old(tmp_path) -> str:
    """A store in today's layout whose ``user_version`` says it was
    written before the tuple checksum (format 0, as older files read)."""
    path = str(tmp_path / "old_version.sqlite")
    store = MeasurementStore(path)
    write_round(store, 1, 0, 10, [record(1, 1, 0), record(2, 1, 0)])
    store.close()
    conn = sqlite3.connect(path)
    conn.execute("PRAGMA user_version = 0")
    conn.close()
    return path


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


VERSION_REFUSAL = "unsupported store format 0"


class TestStoreFormatVersion:
    """``PRAGMA user_version`` names the checksum definition: a file
    with rounds and an older version is refused before any DDL."""

    def test_new_store_records_its_format(self, tmp_path):
        from repro.core.store.sqlite import STORE_FORMAT

        path = str(tmp_path / "new.sqlite")
        MeasurementStore(path).close()
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] \
            == STORE_FORMAT
        conn.close()

    @pytest.mark.parametrize("opener", ["writer", "readonly", "open_store"])
    def test_old_version_is_refused_and_left_unchanged(self, tmp_path,
                                                       opener):
        path = current_store_marked_old(tmp_path)
        before = file_bytes(path)
        open_with = {
            "writer": MeasurementStore,
            "readonly": MeasurementStore.open_readonly,
            "open_store": lambda p: open_store(p, readonly=True),
        }[opener]
        with pytest.raises(UnsupportedStoreFormat, match=VERSION_REFUSAL):
            open_with(path)
        assert file_bytes(path) == before

    @pytest.mark.parametrize(
        "command", ["serve", "verify", "report", "resume", "rebuild-views",
                    "lookup", "aggregate"]
    )
    def test_cli_refuses_old_version_in_one_line(self, tmp_path, capsys,
                                                 command):
        path = current_store_marked_old(tmp_path)
        before = file_bytes(path)
        TestStoreFormat.assert_cli_refuses(
            path, command, VERSION_REFUSAL, capsys
        )
        assert file_bytes(path) == before


def flip(value):
    """*value* with one byte (bytes) or one character (str) changed."""
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:]
    return chr(ord(value[0]) ^ 1) + value[1:]


class TestVerifyNamesEveryMutation:
    """One changed byte anywhere the checksum or the body re-hash
    covers makes ``repro verify`` exit 1 and name the round."""

    def _campaign(self, tmp_path) -> str:
        path = str(tmp_path / "mutated.sqlite")
        store = MeasurementStore(path)
        write_round(store, 1, 0, 10, [record(1, 1, 0, "a"),
                                     record(2, 1, 0, "b")])
        write_round(store, 2, 1, 10, [record(1, 2, 1, "c"),
                                     record(2, 2, 1, "d")])
        store.close()
        return path

    @pytest.mark.parametrize("target", [
        "row column", "bodies.body", "body_digest", "journaled checksum",
    ])
    def test_mutation_fails_verify_and_names_round_2(self, tmp_path,
                                                      capsys, target):
        path = self._campaign(tmp_path)
        assert main(["verify", path]) == 0
        capsys.readouterr()
        conn = sqlite3.connect(path)
        table, column, key, where = {
            "row column": ("round_00001", "title", "ip", 2),
            "bodies.body": ("bodies", "body", "digest",
                            digest_of("<title>d</title>")),
            "body_digest": ("round_00001", "body_digest", "ip", 2),
            "journaled checksum": ("round_shards", "checksum", "round_id", 2),
        }[target]
        (value,) = conn.execute(
            f"SELECT {column} FROM {table} WHERE {key} = ?", (where,)
        ).fetchone()
        conn.execute(
            f"UPDATE {table} SET {column} = ? WHERE {key} = ?",
            (flip(value), where),
        )
        conn.commit()
        conn.close()
        assert main(["verify", path]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines
                if line.startswith("round ") and "FAIL" in line] \
            == ["round 2 (day 1, complete)"]
        assert any(line.startswith("round 1 ") and ": ok" in line
                   for line in lines)

    def test_corrupt_body_is_counted_and_described(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0, "a")])
        store._conn.execute(
            "UPDATE bodies SET body = 'evil' WHERE digest = ?",
            (digest_of("<title>a</title>"),),
        )
        report = store.verify_round(1)
        assert report.corrupt_bodies == 1 and report.missing_bodies == 0
        assert report.corrupt == [0] and not report.ok
        assert "1 CORRUPT bodies" in report.describe()


def seeded_shard(count: int, seed: int) -> list[RoundRecord]:
    """*count* fresh records of round 1: four in five with a page (one
    of 200 bodies, so bodies repeat), the rest bodyless."""
    rng = random.Random(seed)
    records = []
    for ip in range(1, count + 1):
        if rng.random() < 0.2:
            records.append(bare_record(ip, 1, 0))
            continue
        title = f"site {rng.randrange(200)}"
        records.append(RoundRecord(
            ip=ip, round_id=1, timestamp=0,
            probe=ProbeOutcome(ip=ip, status=ProbeStatus.RESPONSIVE,
                               open_ports=frozenset({80, 443})),
            fetch=FetchResult(
                ip=ip, status=FetchStatus.OK, url=f"http://{ip}/",
                status_code=rng.choice([200, 404, 500]),
                headers={"Content-Type": "text/html",
                         "Server": rng.choice(["nginx", "Apache"])},
                body=f"<html><title>{title}</title></html>",
            ),
            features=PageFeatures(title=title, server="nginx",
                                  simhash=rng.getrandbits(96)),
        ))
    return records


class TestPythonCallsPerRow:
    """The writer's work budget: Python calls per committed row for one
    ``write_shard`` of a seeded 1 024-record shard — encode, checksum,
    insert and fold included.  A noise-free gate on the hot path's
    weight, not a speed claim (time spent in C is invisible to it)."""

    #: Reads 5.70; the bound is the reading plus 10 %.
    BUDGET = 6.27

    def test_write_shard_calls_per_row(self):
        records = seeded_shard(1024, seed=7)
        store = MeasurementStore()
        store.begin_round(1, 0, len(records))
        calls, committed = python_calls(
            lambda: store.write_shard(1, 0, records)
        )
        assert committed
        assert calls / len(records) <= self.BUDGET


class TestDatasetLoadBudget:
    """The analysis read's budget per loaded row: Python calls and bytes
    retained by ``Dataset.from_store`` over one seeded 4-round campaign
    (4 096 IPs, 4 126 rows, 2 890 pages holding 260 distinct feature
    tuples).  Noise-free gates on the load's weight, like
    :class:`TestPythonCallsPerRow`: a loader that builds an object per
    row again (a ``PageFeatures``, an ``__init__`` frame) fails here."""

    #: Read 0.121 and 281; each bound is its reading plus 10 %.  The
    #: per-row loader before interning read 3.756 and 952.
    CALLS_BUDGET = 0.133
    BYTES_BUDGET = 309

    @pytest.fixture(scope="class")
    def store(self):
        store = Campaign(ec2_scenario(4096, seed=7, duration_days=10)).run().store
        yield store
        store.close()

    def test_calls_per_loaded_row(self, store):
        calls, dataset = python_calls(lambda: Dataset.from_store(store))
        rows = sum(1 for _ in dataset.observations())
        assert rows == 4126
        assert calls / rows <= self.CALLS_BUDGET

    def test_bytes_retained_per_loaded_row(self, store):
        gc.collect()
        tracemalloc.start()
        try:
            dataset = Dataset.from_store(store)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = sum(1 for _ in dataset.observations())
        assert retained / rows <= self.BYTES_BUDGET


class TestReadonlyStore:
    """`open_readonly`: the query tools' connection can never write."""

    def _seeded(self, tmp_path, rounds=1, per_round=8):
        path = str(tmp_path / "ro.sqlite")
        store = MeasurementStore(path)
        for round_id in range(1, rounds + 1):
            write_round(store, 
                round_id, round_id - 1, per_round,
                [record(ip, round_id, round_id - 1)
                 for ip in range(1, per_round + 1)],
            )
        store.close()
        return path

    def test_reads_work(self, tmp_path):
        path = self._seeded(tmp_path, rounds=2)
        reader = MeasurementStore.open_readonly(path)
        assert reader.readonly is True
        assert [i.round_id for i in reader.rounds()] == [1, 2]
        assert len(list(reader.records(1))) == 8
        assert len(reader.history(3)) == 2
        reader.close()

    def test_cannot_mutate(self, tmp_path):
        import sqlite3

        path = self._seeded(tmp_path)
        reader = MeasurementStore.open_readonly(path)
        with pytest.raises(sqlite3.OperationalError):
            reader.set_meta("k", "v")
        with pytest.raises(sqlite3.OperationalError):
            write_round(reader, 9, 9, 1, [record(1, 9, 9)])
        reader.close()
        # ... and nothing leaked through.
        writer = MeasurementStore(path)
        assert writer.get_meta("k") is None
        assert len(writer.rounds()) == 1
        writer.close()

    def test_missing_database_never_created(self, tmp_path):
        import os
        import sqlite3

        path = str(tmp_path / "absent.sqlite")
        with pytest.raises(sqlite3.OperationalError):
            MeasurementStore.open_readonly(path)
        assert not os.path.exists(path)

    def test_memory_store_rejected(self):
        with pytest.raises(ValueError):
            MeasurementStore.open_readonly(":memory:")

    def test_reader_does_not_block_concurrent_writer(self, tmp_path):
        """A reader holding an open cursor must not stop the campaign
        writer from committing (WAL + mode=ro: no write locks)."""
        path = self._seeded(tmp_path)
        reader = MeasurementStore.open_readonly(path)
        cursor = reader._conn.execute("SELECT * FROM rounds")
        cursor.fetchone()  # cursor now holds a read snapshot open
        writer = MeasurementStore(path, busy_timeout_ms=500)
        write_round(writer, 2, 1, 4, [record(1, 2, 1)])
        assert [i.round_id for i in writer.rounds()] == [1, 2]
        cursor.close()
        writer.close()
        reader.close()


class TestReadDeadline:
    """`read_deadline`: deadline budgets propagate into sqlite."""

    def _big_store(self, tmp_path):
        path = str(tmp_path / "big.sqlite")
        store = MeasurementStore(path)
        write_round(store, 
            1, 0, 3000, [record(ip, 1, 0) for ip in range(1, 2501)]
        )
        store.close()
        return MeasurementStore.open_readonly(path)

    def test_expired_deadline_interrupts_scan(self, tmp_path):
        import time

        from repro.core.store import is_interrupted

        store = self._big_store(tmp_path)
        with pytest.raises(Exception) as excinfo:
            with store.read_deadline(time.monotonic() - 1.0, tick=4):
                store._conn.execute(
                    "SELECT COUNT(*) FROM round_00000 a, round_00000 b"
                ).fetchone()
        assert is_interrupted(excinfo.value)
        store.close()

    def test_generous_deadline_lets_reads_finish(self, tmp_path):
        import time

        store = self._big_store(tmp_path)
        with store.read_deadline(time.monotonic() + 60.0):
            assert len(list(store.records(1))) == 2500
        store.close()

    def test_handler_cleared_after_exit(self, tmp_path):
        import time

        store = self._big_store(tmp_path)
        with pytest.raises(Exception):
            with store.read_deadline(time.monotonic() - 1.0, tick=4):
                store._conn.execute(
                    "SELECT COUNT(*) FROM round_00000 a, round_00000 b"
                ).fetchone()
        # Once the context exits, reads run unbounded again.
        assert len(list(store.records(1))) == 2500
        store.close()

    def test_none_deadline_is_noop(self):
        store = MeasurementStore()
        with store.read_deadline(None):
            write_round(store, 1, 0, 1, [record(1, 1, 0)])
        assert len(store.rounds()) == 1

    def test_interrupted_classifier(self):
        import sqlite3

        from repro.core.store import is_interrupted

        assert is_interrupted(sqlite3.OperationalError("interrupted"))
        assert not is_interrupted(sqlite3.OperationalError("locked"))
        assert not is_interrupted(ValueError("interrupted"))


class TestConnectHelper:
    """Pin the one connection-setup path both open modes now share
    (writer constructor and read-only opens used to duplicate it)."""

    def test_writer_connection_pragmas(self, tmp_path):
        from repro.core.store.sqlite import _connect

        conn = _connect(str(tmp_path / "w.sqlite"))
        try:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 5000
            assert conn.execute("PRAGMA query_only").fetchone()[0] == 0
            row = conn.execute("SELECT 1 AS one").fetchone()
            assert row["one"] == 1          # Row factory installed
        finally:
            conn.close()

    def test_readonly_connection_refuses_writes(self, tmp_path):
        import sqlite3

        from repro.core.store.sqlite import _connect

        path = str(tmp_path / "r.sqlite")
        _connect(path).close()              # create the file
        conn = _connect(path, readonly=True)
        try:
            assert conn.execute("PRAGMA query_only").fetchone()[0] == 1
            with pytest.raises(sqlite3.OperationalError):
                conn.execute("CREATE TABLE t (x)")
        finally:
            conn.close()

    def test_readonly_memory_rejected(self):
        from repro.core.store.sqlite import _connect

        with pytest.raises(ValueError, match="in-memory"):
            _connect(":memory:", readonly=True)

    def test_busy_timeout_is_configurable(self, tmp_path):
        from repro.core.store.sqlite import _connect

        conn = _connect(str(tmp_path / "t.sqlite"), busy_timeout_ms=123)
        try:
            assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 123
        finally:
            conn.close()


class TestTupleFold:
    def test_fold_of_tuples_is_light_row_of_decoded_rows(self):
        """The writer folds stored tuples by position; the views must
        hold what ``light_row`` projects from the decoded rows."""
        from repro.core.store import base as store_base
        from repro.core.store import sqlite as store_sqlite

        records = [record(ip, 1, 0) for ip in range(1, 8)]
        records[3] = bare_record(4, 1, 0)   # a row the projection nulls
        history, counts, tallies = store_sqlite._fold(
            [rec.row() for rec in records]
        )
        rows = [rec.to_row() for rec in records]
        assert history == {
            row["ip"]: tuple(store_base.light_row(row).values())
            for row in rows
        }
        assert counts == store_base.summarize_rows(rows)
        assert tallies == Counter(
            (column, row[column])
            for column in sorted(store_base.AGGREGATE_COLUMNS)
            for row in rows if row[column] is not None
        )


def bare_record(ip: int, round_id: int, timestamp: int) -> RoundRecord:
    """A responsive IP with no page: no body, so no digest."""
    return RoundRecord(
        ip=ip, round_id=round_id, timestamp=timestamp,
        probe=ProbeOutcome(
            ip=ip, status=ProbeStatus.RESPONSIVE, open_ports=frozenset({22})
        ),
        fetch=FetchResult(ip=ip, status=FetchStatus.NOT_ATTEMPTED),
    )


def stored_digests(store: MeasurementStore) -> set[bytes]:
    return {row[0] for row in store._conn.execute("SELECT digest FROM bodies")}


class TestBodiesTable:
    """Round tables carry ``body_digest``; each distinct body is stored
    once in ``bodies``, written and audited with its rows."""

    def test_one_body_row_per_distinct_digest_across_rounds(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0, "a"), record(2, 1, 0, "a"),
                                     record(3, 1, 0, "b"), bare_record(4, 1, 0)])
        write_round(store, 2, 3, 10, [record(1, 2, 3, "a"), record(2, 2, 3, "c"),
                                     bare_record(4, 2, 3)])
        digests = {
            digest_of(rec.fetch.body)
            for info in store.rounds() for rec in store.records(info.round_id)
            if rec.fetch.body is not None
        }
        assert len(digests) == 3
        assert stored_digests(store) == digests
        assert store.orphan_bodies() == 0
        assert [r.fetch.body for r in store.records(2)] == [
            "<title>a</title>", "<title>c</title>", None
        ]

    def test_no_round_table_has_a_body_column(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0)])
        store.begin_round(2, 3, 10, shard_size=5)      # left open
        for info in store.rounds() + store.open_rounds():
            columns = [
                row[1] for row in store._conn.execute(
                    f"PRAGMA table_info({info.table_name})"
                )
            ]
            assert "body" not in columns
            assert "body_digest" in columns

    def test_shard_that_raises_mid_transaction_leaves_no_body(
        self, monkeypatch
    ):
        store = MeasurementStore()
        store.begin_round(1, 0, 10, shard_size=5)

        def explode(*args, **kwargs):
            raise RuntimeError("crash after the rows, before the commit")

        monkeypatch.setattr(store, "_fold_rows", explode)
        with pytest.raises(RuntimeError):
            store.write_shard(1, 0, [record(1, 1, 0, "lost")])
        assert stored_digests(store) == set()
        assert store.completed_shards(1) == set()
        monkeypatch.undo()
        assert store.write_shard(1, 0, [record(1, 1, 0, "kept")])
        assert stored_digests(store) == {digest_of("<title>kept</title>")}

    def test_tampered_body_makes_its_shards_corrupt(self):
        store = MeasurementStore()
        store.begin_round(1, 0, 4, shard_size=2)
        store.write_shard(1, 0, [record(1, 1, 0, "x"), record(2, 1, 0, "y")])
        store.write_shard(1, 1, [record(3, 1, 0, "y"), record(4, 1, 0, "z")])
        store.finalize_round(1)
        write_round(store, 2, 3, 10, [record(1, 2, 3, "y")])
        store._conn.execute(
            "UPDATE bodies SET body = 'evil' WHERE digest = ?",
            (digest_of("<title>y</title>"),),
        )
        store._conn.commit()
        report = store.verify_round(1)
        assert report.corrupt == [0, 1]
        assert report.missing_bodies == 0
        assert store.verify_round(2).corrupt == [0]

    def test_deleted_body_is_named_by_verify(self, tmp_path, capsys):
        path = str(tmp_path / "missing.sqlite")
        store = MeasurementStore(path)
        write_round(store, 1, 0, 10, [record(1, 1, 0, "x"), record(2, 1, 0, "x"),
                                     record(3, 1, 0, "y")])
        store._conn.execute(
            "DELETE FROM bodies WHERE digest = ?",
            (digest_of("<title>x</title>"),),
        )
        store._conn.commit()
        report = store.verify_round(1)
        assert report.missing_bodies == 2
        assert report.corrupt == [0]
        assert not report.ok
        assert "2 rows with a MISSING body" in report.describe()
        store.close()
        assert main(["verify", path]) == 1
        assert "MISSING body" in capsys.readouterr().out

    def test_orphan_body_is_named_by_verify(self, tmp_path, capsys):
        path = str(tmp_path / "orphan.sqlite")
        store = MeasurementStore(path)
        write_round(store, 1, 0, 10, [record(1, 1, 0)])
        store.close()
        assert main(["verify", path]) == 0
        conn = sqlite3.connect(path)
        conn.execute("INSERT INTO bodies VALUES (?, 'nobody')",
                     (digest_of("nobody"),))
        conn.commit()
        conn.close()
        with MeasurementStore.open_readonly(path) as reader:
            assert reader.orphan_bodies() == 1
            assert reader.verify_round(1).ok
        assert main(["verify", path]) == 1
        captured = capsys.readouterr()
        assert "1 stored bodies no round references" in captured.out
        assert "1 orphan bodies" in captured.err

    def test_body_digest_projection_reads_no_body(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0, "x"), bare_record(2, 1, 0)])
        statements = []
        store._conn.set_trace_callback(statements.append)
        assert list(store.columns(1, ("ip", "body_digest"))) == [
            (1, digest_of("<title>x</title>")), (2, None)
        ]
        assert not any("bodies" in sql for sql in statements)
        assert list(store.columns(1, ("body",))) == [
            ("<title>x</title>",), (None,)
        ]
