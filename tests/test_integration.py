"""End-to-end integration tests across the full WhoWas pipeline."""

from __future__ import annotations

from repro.analysis import (
    Cartographer,
    DynamicsAnalyzer,
    SoftwareCensus,
    UptimeAnalyzer,
)
from repro.core.records import UNKNOWN


class TestPipeline:
    def test_history_lookup_roundtrip(self, ec2_campaign):
        """The WhoWas promise: per-IP history of status and content."""
        store = ec2_campaign.store
        dataset = ec2_campaign.dataset
        ip = next(
            ip for ip, history in dataset.by_ip.items() if len(history) >= 3
        )
        records = store.history(ip)
        assert [r.timestamp for r in records] == [
            o.timestamp for o in dataset.history(ip)
        ]

    def test_records_match_ground_truth_content(self, ec2_campaign):
        """Fetched titles agree with the owning service's profile."""
        simulation = ec2_campaign.scenario.simulation
        dataset = ec2_campaign.dataset
        checked = 0
        for obs in dataset.by_round[dataset.round_ids[-1]]:
            if not obs.has_page or obs.features.title == UNKNOWN:
                continue
            owner = simulation.log.owner_on(obs.ip, obs.timestamp)
            service = simulation.services[owner]
            assert service.profile is not None
            if service.profile.status_code == 200:
                assert obs.features.title == service.profile.title
            checked += 1
            if checked >= 50:
                break
        assert checked >= 10

    def test_responsiveness_matches_ground_truth(self, ec2_campaign):
        """Non-transient live hosts are observed; idle IPs are not."""
        simulation = ec2_campaign.scenario.simulation
        dataset = ec2_campaign.dataset
        last_round = dataset.round_ids[-1]
        last_day = dataset.timestamp_of(last_round)
        assert simulation.day == last_day
        observed = {o.ip for o in dataset.by_round[last_round]}
        truly_live = set(simulation.assignments())
        # No false positives: every observed IP was truly live.
        assert observed <= truly_live
        # Coverage: only transient losses (slow/flaky hosts) missed.
        missed = truly_live - observed
        assert len(missed) / len(truly_live) < 0.05

    def test_analysis_engines_compose(self, ec2_campaign, ec2_dataset,
                                       ec2_clustering):
        """All engines run off one campaign without conflicts."""
        scenario = ec2_campaign.scenario
        dynamics = DynamicsAnalyzer(ec2_dataset, ec2_clustering)
        assert dynamics.usage_summary()
        census = SoftwareCensus(ec2_dataset).report()
        assert census.server_family_shares
        uptime = UptimeAnalyzer(ec2_dataset, ec2_clustering)
        assert uptime.top_clusters(3)
        cartography = Cartographer(scenario.topology, scenario.dns)
        mapping = cartography.map_prefixes(sample_per_prefix=2)
        assert mapping.prefix_kinds

    def test_cluster_count_within_service_count_band(self, ec2_campaign,
                                                     ec2_clustering):
        """Final clusters approximate the number of simulated web
        services (the ground truth WhoWas tries to recover)."""
        simulation = ec2_campaign.scenario.simulation
        web_services = sum(
            1 for s in simulation.services.values()
            if s.serves_web and s.profile.status_code == 200
        )
        final = len(ec2_clustering.clusters)
        assert 0.4 * web_services < final < 2.0 * web_services

    def test_azure_campaign_runs(self, azure_campaign):
        assert len(azure_campaign.summaries) == len(
            azure_campaign.scenario.scan_days
        )
        clustering = azure_campaign.clustering()
        assert clustering.clusters

    def test_dataset_round_trip_from_store(self, ec2_campaign):
        from repro.analysis import Dataset

        rebuilt = Dataset.from_store(ec2_campaign.store)
        original = ec2_campaign.dataset
        assert rebuilt.round_ids == original.round_ids
        for rid in rebuilt.round_ids:
            assert len(rebuilt.by_round[rid]) == len(original.by_round[rid])


class TestEthicsInvariants:
    """§7's politeness commitments, enforced by construction."""

    def test_only_three_ports_probed(self, ec2_campaign):
        platform = ec2_campaign  # campaign used default config
        config = platform.scenario  # noqa: F841
        from repro.core.scanner import FALLBACK_PORTS, WEB_PORTS

        assert set(WEB_PORTS) | set(FALLBACK_PORTS) == {80, 443, 22}

    def test_blacklisted_ips_excluded(self):
        from repro.workloads import Campaign, ec2_scenario, simulation_config

        scenario = ec2_scenario(total_ips=512, seed=13, duration_days=6)
        excluded = frozenset(scenario.targets[:50])
        campaign = Campaign(
            scenario, config=simulation_config(blacklist=excluded)
        )
        result = campaign.run(scan_days=[0, 3])
        for rid in result.dataset.round_ids:
            assert not ({o.ip for o in result.dataset.by_round[rid]}
                        & excluded)

    def test_fetch_errors_do_not_abort_round(self, ec2_campaign):
        """Some fetches fail every round; rounds still complete."""
        dataset = ec2_campaign.dataset
        for rid in dataset.round_ids:
            statuses = {o.fetch_status for o in dataset.by_round[rid]}
            assert "ok" in statuses
