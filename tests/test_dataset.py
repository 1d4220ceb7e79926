"""``Dataset.from_store`` against the loader it replaced.

Until the projection read (``StoreBackend.columns``) the dataset was
loaded by decoding every row into a ``RoundRecord`` and deriving each
observation field through the rule functions one record at a time,
parsing every stored body for links and domains on the way.  That
loader survives here as :func:`reference_observe`, the oracle:
whatever campaign, engine or round-execution mode wrote the store, the
one-scan loader must yield the same observations in the same order,
and the lazily computed ``page_text`` the same links and domains.
"""

from __future__ import annotations

import dataclasses
import sqlite3

import pytest

from repro.analysis import Dataset, WebpageClusterer
from repro.analysis.dataset import Observation, PageText
from repro.analysis.trackers import TrackerAnalyzer
from repro.cli import main
from repro.core.features import extract_domains, extract_links
from repro.core.records import (
    PageFeatures,
    RoundRecord,
    digest_of,
    is_available,
    port_profile_of,
    status_class_of,
)
from repro.core.store import MeasurementStore, open_store
from _fakes import write_round
from _obs import obs

from test_hostile import hostile_campaign
from test_store import record
from test_store_backends import (
    ALL_BACKENDS,
    make_store,
    run_campaign,
    store_path,
)
from test_workers import mp_config


def reference_observe(record: RoundRecord) -> tuple[Observation, PageText]:
    """One observation and its page text the way the record-at-a-time
    loader made them: through ``RoundRecord.from_row`` and the rule
    functions applied to one record at a time."""
    links: tuple[str, ...] = ()
    domains: tuple[str, ...] = ()
    if record.fetch.body:
        links = tuple(extract_links(record.fetch.body))
        domains = tuple(extract_domains(record.fetch.body))
    observation = Observation(
        ip=record.ip,
        round_id=record.round_id,
        timestamp=record.timestamp,
        port_profile=port_profile_of(record.probe.open_ports),
        available=is_available(
            record.fetch.status.value, record.fetch.status_code
        ),
        status_code=record.fetch.status_code,
        status_class=status_class_of(record.fetch.status_code),
        content_type=record.fetch.content_type,
        fetch_status=record.fetch.status.value,
        features=record.features,
        ssh_banner=record.ssh_banner,
    )
    return observation, (links, domains)


CAMPAIGNS = (
    [(backend, 1) for backend in ALL_BACKENDS]
    + [(backend, 2) for backend in ALL_BACKENDS]
    + [("hostile", 1)]
)


@pytest.fixture(
    scope="module", params=CAMPAIGNS,
    ids=lambda p: p[0] if p[1] == 1 else f"{p[0]}-{p[1]}workers",
)
def campaign_store(request, tmp_path_factory):
    """An open store holding a finished campaign: the seed campaign
    through each engine, serially and on 2 supervised workers, and the
    hostile-content campaign (poisoned pages, quarantined rows)."""
    source, workers = request.param
    if source == "hostile":
        result, _ = hostile_campaign(0.1)
        yield result.store
        return
    path = store_path(source, tmp_path_factory.mktemp("dataset"))
    run_campaign(
        path, source, config=mp_config(2) if workers == 2 else None
    )
    with open_store(path, readonly=True) as store:
        yield store


class TestFromStoreMatchesReference:
    def reference(self, store):
        return [
            reference_observe(record)
            for info in store.rounds()
            for record in store.records(info.round_id)
        ]

    def test_observations_equal_in_order(self, campaign_store):
        expected = [obs for obs, _ in self.reference(campaign_store)]
        assert any(obs.has_page for obs in expected)
        assert any(not obs.has_page for obs in expected)
        dataset = Dataset.from_store(campaign_store)
        assert list(dataset.observations()) == expected

    def test_page_text_equals_reference(self, campaign_store):
        expected = {
            obs.key(): text
            for obs, text in self.reference(campaign_store) if obs.has_page
        }
        assert any(links for links, _ in expected.values())
        assert any(domains for _, domains in expected.values())
        dataset = Dataset.from_store(campaign_store)
        assert dataset.page_text == expected
        # Observations without a page have no entry and no text.
        bare = {
            obs.key() for obs, text in self.reference(campaign_store)
            if not obs.has_page
        }
        assert bare.isdisjoint(dataset.page_text)

    def test_histories_are_chronological(self, campaign_store):
        dataset = Dataset.from_store(campaign_store)
        assert len(dataset.round_ids) > 1
        for ip, history in dataset.by_ip.items():
            days = [obs.timestamp for obs in history]
            assert days == sorted(set(days)), ip
            assert history == [
                obs for obs in dataset.observations() if obs.ip == ip
            ]


class Parsed(Exception):
    """Raised by the patched-in extractors: a body was parsed."""


def _parsed(body):
    raise Parsed


@pytest.fixture(scope="module")
def cli_campaigns(tmp_path_factory):
    """``repro simulate --ips 2048 --seed 7 --days 24`` through each
    engine: backend name -> path."""
    root = tmp_path_factory.mktemp("cli")
    paths = {name: store_path(name, root) for name in ALL_BACKENDS}
    for name, path in paths.items():
        assert main([
            "simulate", "--ips", "2048", "--seed", "7", "--days", "24",
            "--store-backend", name, "--out", path,
        ]) == 0
    return paths


#: ``repro report`` over that campaign, captured at the commit before
#: the projection read (6f333ea).  It prints the usage funnel, churn,
#: the port / status tables and the censuses, so a drift in load order
#: or in any derived field shows up here.
PARENT_REPORT = """\
rounds: 8, targets probed: 2064
  responsive avg     521.2  growth +6.3%
  available  avg     351.5  growth +10.5%
  clusters   avg      86.5  growth -4.5%
churn: overall 3.38%  responsiveness 3.18%  availability 2.83%
port profiles: {'22-only': 32.0, '80-only': 35.3, '443-only': 3.4, '80&443': 29.2}
status classes: {'200': 62.0, '4xx': 35.1, '5xx': 2.8, 'other': 0.0}
server families: {'Apache': 47.0, 'nginx': 22.5, 'Microsoft-IIS': 13.0, 'MochiWeb': 5.6, 'gunicorn': 5.0}
ssh products: {'OpenSSH': 94.5, 'dropbear': 5.5}
clusters: 101 final (threshold 19)
"""


class TestReportPath:
    def test_report_is_byte_identical_across_engines_and_to_parent(
        self, cli_campaigns, capsys
    ):
        capsys.readouterr()
        for backend, path in cli_campaigns.items():
            assert main(["report", path]) == 0
            assert capsys.readouterr().out == PARENT_REPORT, backend

    def test_aggregate_is_byte_identical_across_engines(
        self, cli_campaigns, capsys
    ):
        capsys.readouterr()
        outputs = set()
        for path in cli_campaigns.values():
            assert main(["aggregate", path, "--cloud", "EC2"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_report_never_parses_a_body(
        self, backend, cli_campaigns, monkeypatch, tmp_path, capsys
    ):
        """The guard on the gain: loading, clustering and everything
        ``repro report`` / ``repro aggregate`` run never reach the
        extractors — only asking for page text does."""
        for module in ("repro.analysis.dataset", "repro.core.features"):
            monkeypatch.setattr(f"{module}.extract_links", _parsed)
            monkeypatch.setattr(f"{module}.extract_domains", _parsed)
        path = cli_campaigns[backend]
        with open_store(path, readonly=True) as store:
            dataset = Dataset.from_store(store)
            assert WebpageClusterer().cluster(dataset).clusters
            with pytest.raises(Parsed):
                dataset.page_text
        assert main(["report", path, "--export", str(tmp_path)]) == 0
        assert main(["aggregate", path, "--cloud", "EC2"]) == 0
        assert "clusters:" in capsys.readouterr().out


class TestPageTextSource:
    def test_closed_store_raises_rather_than_no_links(self, cli_campaigns):
        store = open_store(cli_campaigns["sqlite"], readonly=True)
        dataset = Dataset.from_store(store)
        store.close()
        assert sum(1 for _ in dataset.observations()) > 0
        with pytest.raises(sqlite3.ProgrammingError):
            dataset.page_text

    def test_page_text_is_read_once(self, cli_campaigns):
        with open_store(cli_campaigns["columnar"], readonly=True) as store:
            dataset = Dataset.from_store(store)
            first = dataset.page_text
        assert first and dataset.page_text is first

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_each_distinct_body_is_parsed_once(
        self, backend, cli_campaigns, monkeypatch
    ):
        """One ``extract_links`` / ``extract_domains`` call per distinct
        body digest, not per row, and the per-row reference's text."""
        calls = {"links": 0, "domains": 0}

        def counted(name, real):
            def extract(body):
                calls[name] += 1
                return real(body)
            return extract

        monkeypatch.setattr("repro.analysis.dataset.extract_links",
                            counted("links", extract_links))
        monkeypatch.setattr("repro.analysis.dataset.extract_domains",
                            counted("domains", extract_domains))
        with open_store(cli_campaigns[backend], readonly=True) as store:
            records = [
                record for info in store.rounds()
                for record in store.records(info.round_id)
                if record.fetch.body is not None
            ]
            page_text = Dataset.from_store(store).page_text
        digests = {record.fetch.body_digest for record in records}
        assert len(digests) < len(records)
        assert calls == {"links": len(digests), "domains": len(digests)}
        assert page_text == {
            (record.ip, record.round_id): (
                tuple(extract_links(record.fetch.body)),
                tuple(extract_domains(record.fetch.body)),
            )
            for record in records
        }

    def test_a_row_whose_body_is_missing_has_no_text(self):
        """A digest with no stored body (what ``verify`` reports as a
        MISSING body) is skipped, as ``TrackerAnalyzer.scan_round``
        skips it, not parsed as None."""
        store = MeasurementStore()
        write_round(store, 1, 0, 10, [record(1, 1, 0, "x"), record(2, 1, 0, "y")])
        store._conn.execute("DELETE FROM bodies WHERE digest = ?",
                            (digest_of("<title>x</title>"),))
        assert set(Dataset.from_store(store).page_text) == {(2, 1)}
        assert TrackerAnalyzer(store).scan_round(1).ips_by_tracker == {}

    def test_hand_built_dataset_has_the_text_it_was_given(self):
        assert Dataset([], []).page_text == {}
        text = {(1, 0): (("http://a.example/",), ("a.example.com",))}
        assert Dataset([], [], text).page_text == text


SHARED_BODY = "<title>shared</title>"


def page_row(ip: int, round_id: int, features: PageFeatures) -> RoundRecord:
    """A page row whose body is SHARED_BODY, whatever its features."""
    base = record(ip, round_id, round_id)
    return dataclasses.replace(
        base, fetch=dataclasses.replace(base.fetch, body=SHARED_BODY),
        features=features,
    )


class TestFeatureInterning:
    """``from_store`` builds one ``PageFeatures`` per distinct tuple of
    the ten feature columns -- never per body digest."""

    CLEAN = PageFeatures(title="shared", server="nginx",
                         html_length=len(SHARED_BODY), simhash=0xABC)
    #: What the guard stores for a page it quarantined.
    SENTINEL = PageFeatures(html_length=len(SHARED_BODY))

    @pytest.fixture(params=ALL_BACKENDS)
    def store(self, request, tmp_path):
        store = make_store(request.param, tmp_path)
        yield store
        store.close()

    def test_rows_sharing_a_body_keep_their_own_features(self, store):
        apache = dataclasses.replace(self.CLEAN, server="Apache")
        written = {1: self.SENTINEL, 2: self.CLEAN, 3: apache, 4: self.CLEAN}
        write_round(store, 1, 1, 10, [
            page_row(ip, 1, features) for ip, features in written.items()
        ])
        assert set(store.columns(1, ("body_digest",))) == {
            (digest_of(SHARED_BODY),)
        }
        loaded = {o.ip: o.features for o in Dataset.from_store(store).by_round[1]}
        assert loaded == written
        assert loaded[1] is not loaded[2]
        assert loaded[2] is not loaded[3]
        assert loaded[2] is loaded[4]

    def test_equal_features_in_different_rounds_are_one_object(self, store):
        write_round(store, 1, 1, 10, [page_row(1, 1, self.CLEAN)])
        write_round(store, 2, 2, 10, [page_row(1, 2, self.CLEAN),
                                      page_row(2, 2, self.CLEAN)])
        pages = [o.features for o in Dataset.from_store(store).observations()]
        assert pages == [self.CLEAN] * 3
        assert pages[0] is pages[1] is pages[2]

    def test_loads_share_nothing(self, store):
        write_round(store, 1, 1, 10, [page_row(1, 1, self.CLEAN)])
        first, second = (
            next(Dataset.from_store(store).observations()).features
            for _ in range(2)
        )
        assert first == second and first is not second


class TestObservationRecord:
    """``Observation`` is an immutable record without a ``__dict__``."""

    def test_fields_cannot_be_assigned(self):
        observation = obs(1, 2)
        with pytest.raises(AttributeError):
            observation.ip = 3
        assert not hasattr(observation, "__dict__")

    def test_keyword_construction(self):
        observation = obs(7, 2, 40, title="t", ssh_banner="SSH-2.0-x")
        assert observation.key() == (7, 2)
        assert observation.timestamp == 40
        assert observation.features.title == "t"
        assert observation.ssh_banner == "SSH-2.0-x"
        assert obs(7, 2, has_page=False).has_page is False

    def test_positional_construction_defaults_the_banner(self):
        observation = Observation(1, 2, 2, "80-only", True, 200, "200",
                                  "text/html", "ok", None)
        assert observation.ssh_banner is None
        assert observation == obs(1, 2, has_page=False)

    def test_equal_and_hashed_by_value(self):
        assert obs(1, 2, title="a") == obs(1, 2, title="a")
        assert obs(1, 2, title="a") != obs(1, 2, title="b")
        assert len({obs(1, 2, title="a"), obs(1, 2, title="a"),
                    obs(1, 2, title="b")}) == 2
