"""Tests for active-DNS domain correlation (§9 future work)."""

from __future__ import annotations

from repro.analysis.clustering import WebpageClusterer
from repro.analysis.domains import DomainCorrelator
from repro.core.features import extract_domains

from _obs import make_dataset, obs


class TestExtractDomains:
    def test_finds_domains(self):
        html = "<!-- served for www.acme42.com --> visit shop.acme42.com"
        assert extract_domains(html) == ["www.acme42.com", "shop.acme42.com"]

    def test_deduplicates_and_lowercases(self):
        html = "WWW.Acme.COM and www.acme.com"
        assert extract_domains(html) == ["www.acme.com"]

    def test_ignores_non_domains(self):
        assert extract_domains("no domains 1.2 here") == []


def page(ip, rid, status_code=404):
    """A page observation; the domains its body mentions go in the
    dataset's page_text."""
    title = "404 Not Found" if status_code == 404 else "site"
    return obs(ip, rid, title=title, status_code=status_code,
               simhash=ip * 977)


class TestDomainCorrelator:
    def resolver(self, table):
        def resolve(domain):
            return table.get(domain, [])
        return resolve

    def build(self):
        rows = [
            page(1, 0, 404),
            page(2, 0, 404),
            obs(3, 0, title="open site", simhash=123456),
        ]
        dataset = make_dataset(rows, page_text={
            (1, 0): ((), ("www.hidden.com",)),
            (2, 0): ((), ("www.liar.com",)),
            (3, 0): ((), ()),
        })
        resolver = self.resolver({
            "www.hidden.com": [1, 9],   # confirms ip 1
            "www.liar.com": [7],        # mentions ip 2, resolves elsewhere
        })
        return dataset, resolver

    def test_confirmation_requires_resolution_back(self):
        dataset, resolver = self.build()
        report = DomainCorrelator(dataset, resolver).correlate()
        assert report.candidates == 2
        assert report.resolved == 2
        confirmed = {c.domain for c in report.confirmed()}
        assert confirmed == {"www.hidden.com"}

    def test_error_page_ownership_recovered(self):
        dataset, resolver = self.build()
        report = DomainCorrelator(dataset, resolver).correlate()
        assert report.recovered_error_ips() == {1}

    def test_nxdomain_skipped(self):
        dataset, _ = self.build()
        report = DomainCorrelator(dataset, lambda d: []).correlate()
        assert report.resolved == 0
        assert report.correlations == []

    def test_domain_filter(self):
        dataset, resolver = self.build()
        report = DomainCorrelator(dataset, resolver).correlate(
            domains=["www.liar.com"]
        )
        assert report.candidates == 1

    def test_clusters_attached(self):
        dataset = make_dataset(
            [page(1, 0, 200)], page_text={(1, 0): ((), ("www.ok.com",))}
        )
        clustering = WebpageClusterer(level2_threshold=3).cluster(dataset)
        correlator = DomainCorrelator(
            dataset, self.resolver({"www.ok.com": [1]}), clustering
        )
        report = correlator.correlate()
        (correlation,) = report.confirmed()
        assert correlation.clusters


class TestSimulatedDomainResolution:
    def test_resolve_domain_returns_footprint(self, ec2_campaign):
        simulation = ec2_campaign.scenario.simulation
        dns = ec2_campaign.scenario.dns
        service = next(
            s for s in simulation.live_services()
            if s.profile is not None and s.profile.domain
            and simulation.footprint(s.service_id)
        )
        resolved = dns.resolve_domain(service.profile.domain)
        assert resolved == sorted(simulation.footprint(service.service_id))

    def test_unknown_domain_empty(self, ec2_campaign):
        assert ec2_campaign.scenario.dns.resolve_domain("nope.example.com") == []

    def test_end_to_end_correlation(self, ec2_campaign, ec2_clustering):
        correlator = DomainCorrelator(
            ec2_campaign.dataset,
            ec2_campaign.scenario.dns.resolve_domain,
            ec2_clustering,
        )
        report = correlator.correlate()
        assert report.candidates > 0
        confirmed = report.confirmed()
        assert confirmed
        # Every confirmed correlation is true per ground truth: the
        # domain's owning service held the confirmed IP at some point.
        simulation = ec2_campaign.scenario.simulation
        for correlation in confirmed[:20]:
            service = simulation.service_for_domain(correlation.domain)
            assert service is not None
            held = {
                interval.ip
                for interval in
                simulation.log.intervals_for_service(service.service_id)
            }
            assert set(correlation.confirmed_ips) <= held
