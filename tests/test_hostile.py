"""Hostile-content hardening: the pipeline against booby-trapped pages.

Covers the acceptance criteria of the supervision layer: a campaign
poisoned with hostile content completes every round with zero unhandled
exceptions, every poisoned page lands in the dead-letter quarantine,
and ``repro quarantine list|replay`` round-trips the entries.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.faults import FaultKind, _hostile_response, hostile_plan
from repro.core.features import FeatureExtractor
from repro.core.fetcher import decode_body
from repro.core.guard import GuardVerdict, Supervisor
from repro.core.records import (
    FetchResult,
    FetchStatus,
    PageFeatures,
    ProbeOutcome,
    ProbeStatus,
    QuarantineRecord,
    RoundRecord,
)
from repro.core.store import MeasurementStore
from repro.cli import main as cli_main
from _fakes import write_round

from test_chaos import assert_chaos_invariants, storm_campaign

#: One representative poison body per attack family, plus edge shapes.
HOSTILE_CORPUS = [
    "<title>" + "A" * 1_048_576,                       # megabyte title
    "<html>" + "<div class='d'>" * 20_000 + "<p x",    # unterminated nest
    "\x00" * 4096,                                     # null flood
    "\x00é\udcff" * 300,                               # mixed garbage
    "<meta content='x' name='description'"             # unclosed meta
    + "<meta " * 5_000,
    "<" * 100_000,                                     # bare-bracket flood
    "<title>" * 50_000,                                # title-open flood
    "</title>" * 50_000,                               # close-only flood
    "a" * 1_000_000,                                   # huge tagless text
    "",                                                # empty
]


def hostile_fetch(body: str) -> FetchResult:
    return FetchResult(
        ip=9, status=FetchStatus.OK, url="http://x/", status_code=200,
        headers={"Content-Type": "text/html"}, body=body,
    )


class TestHostileCorpus:
    @pytest.mark.parametrize("body", HOSTILE_CORPUS)
    def test_extract_never_raises(self, body):
        features = FeatureExtractor().extract(hostile_fetch(body))
        assert features.html_length == len(body)

    @pytest.mark.parametrize("body", HOSTILE_CORPUS)
    def test_inspect_returns_a_verdict(self, body):
        verdict = Supervisor().inspect(hostile_fetch(body))
        assert isinstance(verdict, GuardVerdict)

    def test_each_injected_payload_trips_its_verdict(self):
        expected = {
            FaultKind.HEADER_BOMB: GuardVerdict.HEADER_BOMB,
            FaultKind.MARKUP_BOMB: GuardVerdict.MARKUP_BOMB,
            FaultKind.ENCODING_GARBAGE: GuardVerdict.BINARY_GARBAGE,
            FaultKind.TITLE_BOMB: GuardVerdict.TITLE_BOMB,
        }
        guard = Supervisor()
        for kind, verdict in expected.items():
            response = _hostile_response(kind, 512 * 1024)
            fetch = FetchResult(
                ip=1, status=FetchStatus.OK, url="http://x/",
                status_code=response.status_code,
                headers=dict(response.headers),
                body=decode_body(
                    response.body, response.header("content-type")
                ),
            )
            assert guard.inspect(fetch) is verdict, kind


class TestHostileProperties:
    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=2000))
    def test_extract_total_over_arbitrary_text(self, body):
        features = FeatureExtractor().extract(hostile_fetch(body))
        assert features.html_length == len(body)

    @settings(max_examples=80, deadline=None)
    @given(st.text(max_size=2000))
    def test_inspect_total_over_arbitrary_text(self, body):
        assert isinstance(
            Supervisor().inspect(hostile_fetch(body)), GuardVerdict
        )

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=2000), st.text(max_size=40))
    def test_decode_body_total(self, raw, charset):
        text = decode_body(raw, f"text/html; charset={charset}")
        assert isinstance(text, str)


def hostile_campaign(rate: float = 0.1, **kwargs):
    return storm_campaign(plan=hostile_plan(23, rate=rate), **kwargs)


class TestHostileCampaign:
    def test_poisoned_campaign_quarantines_every_hit(self):
        # Acceptance: hostile faults at 10% of fetches — every round
        # completes, every poisoned page GET has a quarantine entry.
        result, faulty = hostile_campaign(0.1)
        assert_chaos_invariants(result, faulty)
        store = result.store

        page_hits = {
            (round_id, ip)
            for round_id, ip, path, _ in faulty.hostile_hits
            if path == "/"
        }
        assert page_hits, "storm poisoned no page fetches?"
        quarantined = {
            (entry.round_id, entry.ip)
            for entry in store.quarantine_rows()
        }
        missing = page_hits - quarantined
        assert not missing, f"poisoned pages missing from quarantine: {missing}"

        # Summaries expose the counts, and they match the store.
        total = sum(summary.quarantined for summary in result.summaries)
        assert total == store.quarantine_count() >= len(page_hits)

    def test_quarantined_pages_keep_their_round_records(self):
        # Hostile content costs (at most) its own features, never the
        # row: every quarantined extract-stage page still has a record.
        result, faulty = hostile_campaign(0.1)
        store = result.store
        for entry in store.quarantine_rows():
            if entry.stage != "extract":
                continue
            record = store.record(entry.round_id, entry.ip)
            assert record is not None
            assert record.fetch.status is FetchStatus.OK

    @pytest.mark.chaos
    def test_pure_hostile_storm_full_rate(self):
        # Every single fetch poisoned: the campaign still completes.
        result, faulty = hostile_campaign(1.0, rounds=2)
        assert_chaos_invariants(result, faulty)
        assert result.store.quarantine_count() > 0

    @pytest.mark.chaos
    def test_hostile_plus_network_storm(self):
        # Hostile content and network faults together; first matching
        # rule wins, the pipeline survives both.
        from repro.core.faults import FaultPlan, chaos_plan

        hostile = hostile_plan(5, rate=0.1)
        network = chaos_plan(5, rate=0.15)
        mixed = FaultPlan(seed=5, rules=hostile.rules + network.rules)
        result, faulty = storm_campaign(plan=mixed)
        assert_chaos_invariants(result, faulty)


class TestQuarantineStore:
    def entry(self, **kwargs) -> QuarantineRecord:
        defaults = dict(
            ip=7, round_id=1, timestamp=0, stage="extract",
            verdict="markup-bomb", error_class=None, error=None,
            payload="<div>" * 8,
        )
        defaults.update(kwargs)
        return QuarantineRecord(**defaults)

    def test_round_trip(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [], quarantine=[self.entry()])
        (loaded,) = store.quarantine_rows()
        assert loaded.entry_id is not None
        assert loaded.ip == 7 and loaded.verdict == "markup-bomb"
        assert not loaded.replayed

    def test_filters(self):
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [], quarantine=[self.entry(round_id=1)])
        write_round(store, 2, 3, 10, [], quarantine=[self.entry(round_id=2)])
        (done,) = store.quarantine_rows(2)
        store.mark_quarantine_replayed(done.entry_id)
        assert store.quarantine_count() == 2
        assert store.quarantine_count(round_id=2) == 1
        assert len(store.quarantine_rows(include_replayed=False)) == 1
        assert [e.round_id for e in store.quarantine_rows(1)] == [1]

    def test_shard_replay_does_not_duplicate_quarantine(self):
        # Quarantine inserts ride the shard transaction, so re-writing
        # a committed shard (the crash/resume path) is a no-op for them.
        store = MeasurementStore()
        store.begin_round(1, 0, 4, shard_size=4)
        wrote = store.write_shard(
            1, 0, [], quarantine=[self.entry()]
        )
        assert wrote
        wrote = store.write_shard(
            1, 0, [], quarantine=[self.entry(), self.entry()]
        )
        assert not wrote
        assert store.quarantine_count() == 1


def _record(ip: int, round_id: int, body: str) -> RoundRecord:
    return RoundRecord(
        ip=ip, round_id=round_id, timestamp=0,
        probe=ProbeOutcome(
            ip=ip, status=ProbeStatus.RESPONSIVE,
            open_ports=frozenset({80}),
        ),
        fetch=FetchResult(
            ip=ip, status=FetchStatus.OK, url=f"http://h{ip}/",
            status_code=200, headers={"Content-Type": "text/html"},
            body=body,
        ),
        features=PageFeatures(html_length=len(body)),  # sentinel
    )


class TestQuarantineCli:
    def make_db(self, tmp_path) -> str:
        path = str(tmp_path / "rounds.db")
        store = MeasurementStore(path)
        body = "<html><title>recovered</title></html>"
        write_round(store, 1, 0, 2, [_record(16909060, 1, body)], quarantine=[
            QuarantineRecord(
                ip=16909060, round_id=1, timestamp=0, stage="extract",
                verdict="task-error", error_class="RecursionError",
            ),
            QuarantineRecord(
                ip=16909061, round_id=1, timestamp=0, stage="fetch",
                verdict="stage-deadline", error_class="StageDeadlineExceeded",
            ),
        ])
        store.close()
        return path

    def test_list(self, tmp_path, capsys):
        db = self.make_db(tmp_path)
        assert cli_main(["quarantine", "list", db]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "1.2.3.4" in out and "task-error" in out
        assert "pending" in out

    def test_replay_round_trip(self, tmp_path, capsys):
        db = self.make_db(tmp_path)
        assert cli_main(["quarantine", "replay", db]) == 0
        out = capsys.readouterr().out
        assert "replayed 1 entries" in out
        assert "1 skipped" in out  # fetch-stage entry has no body

        store = MeasurementStore(db)
        # The sentinel features were replaced by a real extraction...
        record = store.record(1, 16909060)
        assert record.features.title == "recovered"
        # ...the entry is marked replayed and drops out of the default
        # replay set, so a second replay is a no-op.
        pending = store.quarantine_rows(include_replayed=False)
        assert [e.stage for e in pending] == ["fetch"]
        store.close()
        assert cli_main(["quarantine", "replay", db]) == 0
        assert "replayed 0 entries" in capsys.readouterr().out

    def test_list_empty(self, tmp_path, capsys):
        path = str(tmp_path / "empty.db")
        MeasurementStore(path).close()
        assert cli_main(["quarantine", "list", path]) == 0
        assert "empty" in capsys.readouterr().out

    def test_round_filter(self, tmp_path, capsys):
        db = self.make_db(tmp_path)
        assert cli_main(["quarantine", "list", db, "--round", "99"]) == 0
        assert "empty" in capsys.readouterr().out
