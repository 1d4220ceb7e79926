"""Tests for DNS-based cartography and VPC usage analyses."""

from __future__ import annotations

import pytest

from repro.analysis.cartography import Cartographer, CartographyMap, VpcUsageAnalyzer
from repro.analysis.clustering import WebpageClusterer
from repro.cloudsim.addressing import Prefix, ip_to_int
from repro.cloudsim.dns import CloudDns
from repro.cloudsim.population import WorkloadSpec
from repro.cloudsim.providers import EC2_SPEC, NetKind
from repro.cloudsim.services import PORT_PROFILES_EC2
from repro.cloudsim.simulation import CloudSimulation
from repro.cloudsim.software import EC2_CATALOG

from _obs import make_dataset, obs


@pytest.fixture(scope="module")
def world():
    topology = EC2_SPEC.build(4096, seed=41)
    sim = CloudSimulation(
        topology,
        WorkloadSpec(cloud="EC2", duration_days=20),
        EC2_CATALOG,
        PORT_PROFILES_EC2,
        seed=41,
    )
    return topology, sim, CloudDns(topology, sim)


class TestCartographer:
    def test_full_sweep_matches_ground_truth(self, world):
        """The §5 decision rule recovers the true VPC/classic map."""
        topology, _, dns = world
        cartographer = Cartographer(topology, dns)
        measured = cartographer.map_prefixes()
        for prefix, kind in measured.prefix_kinds.items():
            assert kind == topology.kind_of(prefix.first)

    def test_sampled_sweep_matches_too(self, world):
        topology, _, dns = world
        cartographer = Cartographer(topology, dns)
        measured = cartographer.map_prefixes(sample_per_prefix=4)
        for prefix, kind in measured.prefix_kinds.items():
            assert kind == topology.kind_of(prefix.first)

    def test_sampling_reduces_queries(self, world):
        topology, sim, _ = world
        dns = CloudDns(topology, sim)
        Cartographer(topology, dns).map_prefixes(sample_per_prefix=2)
        sampled_queries = dns.query_count
        dns2 = CloudDns(topology, sim)
        Cartographer(topology, dns2).map_prefixes()
        assert sampled_queries < dns2.query_count

    def test_summary_table(self, world):
        """Table 2: per-region VPC prefix counts and shares."""
        topology, _, dns = world
        cartographer = Cartographer(topology, dns)
        measured = cartographer.map_prefixes(sample_per_prefix=4)
        summary = cartographer.summarize(measured)
        truth = topology.vpc_prefix_summary()
        assert summary == truth
        assert summary["USWest_Oregon"][1] > summary["USEast"][1]


class TestCartographyMap:
    def test_lookup(self):
        mapping = CartographyMap(
            {
                Prefix(ip_to_int("10.0.0.0"), 24): NetKind.VPC,
                Prefix(ip_to_int("10.0.1.0"), 24): NetKind.CLASSIC,
            }
        )
        assert mapping.kind_of((10 << 24) | 5) == NetKind.VPC
        assert mapping.kind_of((10 << 24) | (1 << 8) | 5) == NetKind.CLASSIC
        assert list(mapping.prefix_kinds.values()).count(NetKind.VPC) == 1
        with pytest.raises(KeyError):
            mapping.kind_of(1)

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError):
            CartographyMap(
                {
                    Prefix(ip_to_int("10.0.0.0"), 24): NetKind.VPC,
                    Prefix(ip_to_int("11.0.0.0"), 22): NetKind.CLASSIC,
                }
            )


class TestVpcUsageAnalyzer:
    def mapping(self) -> CartographyMap:
        return CartographyMap(
            {
                Prefix(ip_to_int("10.0.0.0"), 24): NetKind.CLASSIC,
                Prefix(ip_to_int("10.0.1.0"), 24): NetKind.VPC,
            }
        )

    def classic_ip(self, host: int) -> int:
        return (10 << 24) | host

    def vpc_ip(self, host: int) -> int:
        return (10 << 24) | (1 << 8) | host

    def test_ip_series(self):
        dataset = make_dataset([
            obs(self.classic_ip(1), 0, title="a", simhash=1),
            obs(self.vpc_ip(1), 0, title="b", simhash=1 << 50,
                status_code=None, has_page=False),
            obs(self.classic_ip(1), 1, title="a", simhash=1),
        ])
        clustering = WebpageClusterer(level2_threshold=3).cluster(dataset)
        analyzer = VpcUsageAnalyzer(dataset, clustering, self.mapping())
        series = analyzer.ip_series()
        assert series["classic_responsive"] == [1, 1]
        assert series["classic_available"] == [1, 1]
        assert series["vpc_responsive"] == [1, 0]
        assert series["vpc_available"] == [0, 0]

    def test_cluster_kinds(self):
        dataset = make_dataset([
            obs(self.classic_ip(1), 0, title="c-only", simhash=1),
            obs(self.vpc_ip(2), 0, title="v-only", simhash=1 << 50),
            obs(self.classic_ip(3), 0, title="mix", simhash=1 << 90),
            obs(self.vpc_ip(3), 0, title="mix", simhash=1 << 90),
        ])
        clustering = WebpageClusterer(level2_threshold=3).cluster(dataset)
        analyzer = VpcUsageAnalyzer(dataset, clustering, self.mapping())
        totals = analyzer.cluster_kind_totals()
        assert totals == {"classic-only": 1, "vpc-only": 1, "mixed": 1}
        series = analyzer.cluster_kind_series()
        assert series["classic-only"] == [1]
        assert series["mixed"] == [1]

    def test_transition_detection(self):
        dataset = make_dataset([
            obs(self.classic_ip(1), 0, title="mover", simhash=1),
            obs(self.vpc_ip(9), 1, title="mover", simhash=1),
        ])
        clustering = WebpageClusterer(level2_threshold=3).cluster(dataset)
        analyzer = VpcUsageAnalyzer(dataset, clustering, self.mapping())
        moves = analyzer.transitions()
        assert moves["classic_to_vpc"] == 1
        assert moves["vpc_to_classic"] == 0

    def test_campaign_classic_dominates(self, ec2_campaign, ec2_dataset,
                                         ec2_clustering):
        """§8.1: 72.9% of EC2 clusters are classic-only."""
        topology = ec2_campaign.scenario.topology
        dns = ec2_campaign.scenario.dns
        measured = Cartographer(topology, dns).map_prefixes(
            sample_per_prefix=4
        )
        analyzer = VpcUsageAnalyzer(ec2_dataset, ec2_clustering, measured)
        totals = analyzer.cluster_kind_totals()
        total = sum(totals.values())
        assert totals["classic-only"] / total > 0.5
        assert totals["vpc-only"] > totals["mixed"]
