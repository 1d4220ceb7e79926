"""Tests for scenario builders and the campaign driver."""

from __future__ import annotations

import pytest

from repro.workloads import (
    Campaign,
    azure_scenario,
    ec2_scenario,
    scan_calendar,
    simulation_config,
)


class TestScanCalendar:
    def test_sparse_then_daily(self):
        days = scan_calendar(30, step=3, daily_from=20)
        assert days[:3] == [0, 3, 6]
        assert days[-3:] == [27, 28, 29]

    def test_paper_ec2_round_count(self):
        scenario = ec2_scenario(total_ips=1024, seed=1)
        assert len(scenario.scan_days) == 51        # §6

    def test_paper_azure_round_count(self):
        scenario = azure_scenario(total_ips=1024, seed=1)
        assert len(scenario.scan_days) == 46        # §6


class TestScenarios:
    def test_ec2_regions(self):
        scenario = ec2_scenario(total_ips=2048, seed=2)
        assert {r.name for r in scenario.topology.space.regions} == {
            "USEast", "USWest_Oregon", "EU", "AsiaTokyo", "USWest_NC",
            "AsiaSingapore", "AsiaSydney", "SouthAmerica",
        }

    def test_targets_cover_space(self):
        scenario = ec2_scenario(total_ips=1024, seed=2)
        assert len(scenario.targets) == scenario.topology.space.size

    def test_giants_planted(self):
        scenario = ec2_scenario(total_ips=4096, seed=2)
        categories = {
            s.category for s in scenario.simulation.services.values()
        }
        assert "PaaS" in categories
        assert "VPN" in categories

    def test_giants_optional(self):
        scenario = ec2_scenario(total_ips=2048, seed=2, with_giants=False)
        assert "PaaS" not in {
            s.category for s in scenario.simulation.services.values()
        }

    def test_azure_no_vpc(self):
        scenario = azure_scenario(total_ips=1024, seed=2)
        assert all(
            s.networking == "classic"
            for s in scenario.simulation.services.values()
        )

    def test_blacklist_services_available(self, ec2_campaign):
        scenario = ec2_campaign.scenario
        assert scenario.safe_browsing(seed=1) is not None
        assert scenario.virustotal(seed=1) is not None

    def test_departure_events_within_duration(self):
        scenario = ec2_scenario(total_ips=1024, seed=2, duration_days=30)
        assert all(
            day < 30 for day in scenario.workload.departure_events
        )


class TestCampaign:
    def test_round_count_and_summaries(self, ec2_campaign):
        assert len(ec2_campaign.summaries) == len(
            ec2_campaign.scenario.scan_days
        )
        for summary in ec2_campaign.summaries:
            assert summary.responsive >= summary.available

    def test_store_has_all_rounds(self, ec2_campaign):
        rounds = ec2_campaign.store.rounds()
        assert [r.timestamp for r in rounds] == \
            ec2_campaign.scenario.scan_days

    def test_dataset_cached(self, ec2_campaign):
        assert ec2_campaign.dataset is ec2_campaign.dataset

    def test_clustering_cached(self, ec2_campaign):
        assert ec2_campaign.clustering() is ec2_campaign.clustering()

    def test_clustering_overrides_not_cached(self, ec2_campaign):
        custom = ec2_campaign.clustering(level2_threshold=1)
        assert custom is not ec2_campaign.clustering()

    def test_custom_scan_days(self):
        scenario = ec2_scenario(total_ips=512, seed=3, duration_days=10)
        result = Campaign(scenario).run(scan_days=[0, 5])
        assert len(result.summaries) == 2

    def test_simulation_config_fast(self):
        config = simulation_config()
        assert config.scan.probes_per_second >= 1e9
        assert config.scan.probe_timeout == 2.0   # paper semantics kept

    def test_probe_budget_respected(self, ec2_campaign):
        """Politeness audit: at most 3 probes and 2 GETs per IP/round."""
        transport = ec2_campaign.scenario.transport
        targets = len(ec2_campaign.scenario.targets)
        rounds = len(ec2_campaign.summaries)
        assert transport.probe_count <= targets * rounds * 3
        responsive_total = sum(s.responsive for s in ec2_campaign.summaries)
        assert transport.get_count <= responsive_total * 2


class TestDeterminism:
    def test_same_seed_same_campaign(self):
        def run():
            scenario = ec2_scenario(total_ips=512, seed=9, duration_days=12)
            return Campaign(scenario).run()

        a, b = run(), run()
        assert [s.responsive for s in a.summaries] == [
            s.responsive for s in b.summaries
        ]
        assert [s.available for s in a.summaries] == [
            s.available for s in b.summaries
        ]

    @pytest.mark.parametrize("builder", [ec2_scenario, azure_scenario])
    def test_scenarios_construct(self, builder):
        scenario = builder(total_ips=512, seed=4)
        assert scenario.simulation.occupied_count() > 0
