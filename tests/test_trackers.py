"""Tests for third-party tracker fingerprinting and GA accounts (§8.3)."""

from __future__ import annotations

import pytest

from repro.analysis import trackers
from repro.analysis.trackers import (
    TRACKER_FINGERPRINTS,
    TrackerAnalyzer,
    analyze_ga_accounts,
)


class TestFingerprints:
    def test_table20_trackers_present(self):
        expected = {
            "google-analytics", "facebook", "twitter", "doubleclick",
            "quantserve", "scorecardresearch", "imrworldwide",
            "serving-sys", "atdmt", "yieldmanager",
        }
        assert expected <= set(TRACKER_FINGERPRINTS)

    def test_fingerprints_are_urls(self):
        for name, fingerprint in TRACKER_FINGERPRINTS.items():
            if name == "google-analytics":
                continue
            assert fingerprint.startswith("http://")


class TestTrackerAnalyzer:
    def test_scan_last_round(self, ec2_campaign, ec2_clustering):
        analyzer = TrackerAnalyzer(ec2_campaign.store, ec2_clustering)
        last_round = ec2_campaign.dataset.round_ids[-1]
        hits = analyzer.scan_round(last_round)
        assert "google-analytics" in hits.ips_by_tracker
        table = hits.table(10)
        assert table[0][0] == "google-analytics"   # Table 20's leader
        counts = [ips for _, ips, _ in table]
        assert counts == sorted(counts, reverse=True)

    def test_clusters_attached(self, ec2_campaign, ec2_clustering):
        analyzer = TrackerAnalyzer(ec2_campaign.store, ec2_clustering)
        last_round = ec2_campaign.dataset.round_ids[-1]
        hits = analyzer.scan_round(last_round)
        for name, ips, clusters in hits.table(10):
            assert clusters <= ips

    def test_multi_tracker_shares(self, ec2_campaign):
        analyzer = TrackerAnalyzer(ec2_campaign.store)
        hits = analyzer.scan_round(ec2_campaign.dataset.round_ids[-1])
        shares = hits.multi_tracker_shares()
        assert shares
        assert sum(shares.values()) == pytest.approx(100.0)
        # §8.3: most tracker-using pages embed a single tracker.
        assert shares.get(1, 0.0) > 50.0

    def test_each_distinct_body_is_searched_once(
        self, ec2_campaign, ec2_clustering, monkeypatch
    ):
        """One fingerprint scan per distinct body digest in the round,
        and the hits the per-row scan finds."""
        store = ec2_campaign.store
        round_id = ec2_campaign.dataset.round_ids[-1]
        pages = [
            record for record in store.records(round_id)
            if record.fetch.body
        ]
        ips: dict[str, set[int]] = {}
        clusters: dict[str, set[int]] = {}
        for record in pages:
            for name, fingerprint in TRACKER_FINGERPRINTS.items():
                if fingerprint in record.fetch.body:
                    ips.setdefault(name, set()).add(record.ip)
                    cid = ec2_clustering.cluster_of(record.ip, round_id)
                    if cid is not None:
                        clusters.setdefault(name, set()).add(cid)
        scanned = []
        real = trackers._fingerprints_in
        monkeypatch.setattr(
            trackers, "_fingerprints_in",
            lambda body: scanned.append(body) or real(body),
        )
        hits = TrackerAnalyzer(store, ec2_clustering).scan_round(round_id)
        digests = {record.fetch.body_digest for record in pages}
        assert len(digests) < len(pages)
        assert len(scanned) == len(digests)
        assert hits.ips_by_tracker == ips
        assert hits.clusters_by_tracker == clusters

    def test_ga_ids_collected(self, ec2_campaign):
        analyzer = TrackerAnalyzer(ec2_campaign.store)
        ids = analyzer.ga_ids()
        assert ids
        assert all(ga_id.startswith("UA-") for ga_id in ids)


class TestGaAccounts:
    def test_account_split(self):
        stats = analyze_ga_accounts(
            {
                "UA-10000-1": {1},
                "UA-10000-2": {2},
                "UA-20000-1": {3, 4},
                "UA-30000-1": {5},
                "not-a-ga-id": {6},
            }
        )
        assert stats.accounts == 3
        assert stats.unique_ids == 5
        assert stats.unique_ips == 5
        assert stats.profile_distribution[1] == pytest.approx(200 / 3)
        assert stats.profile_distribution[2] == pytest.approx(100 / 3)

    def test_campaign_accounts(self, ec2_campaign):
        analyzer = TrackerAnalyzer(ec2_campaign.store)
        stats = analyze_ga_accounts(analyzer.ga_ids())
        assert stats.accounts > 0
        # §8.3: ~93.5% of accounts use one profile.
        assert stats.single_profile_share() > 60.0
