"""Tests for synthetic webpage generation."""

from __future__ import annotations

import random
from collections import Counter

from repro.cloudsim.content import (
    ContentFactory,
    ContentProfile,
    DEFAULT_PAGES,
    GoogleAnalyticsRegistry,
    TRACKER_CATALOG,
)
from repro.core.simhash import hamming_distance, simhash


def factory(seed: int = 1, **kwargs) -> ContentFactory:
    return ContentFactory(random.Random(seed), **kwargs)


class TestContentProfile:
    def test_render_deterministic(self):
        profile = factory().make_profile()
        assert profile.render(0, 0) == profile.render(0, 0)

    def test_revision_changes_little(self):
        profile = factory(3).make_profile()
        base = simhash(profile.render(0, 0))
        revised = simhash(profile.render(0, 1))
        assert 0 < hamming_distance(base, revised) <= 12

    def test_redesign_changes_much(self):
        profile = factory(4).make_profile()
        base = simhash(profile.render(0, 0))
        redesigned = simhash(profile.render(1, 0))
        assert hamming_distance(base, redesigned) > 20

    def test_html_carries_metadata(self):
        for _ in range(30):
            profile = factory(5).make_profile()
            if profile.status_code != 200 or profile.content_type != "text/html":
                continue
            html = profile.render()
            assert f"<title>{profile.title}</title>" in html
            if profile.keywords:
                assert profile.keywords in html
            if profile.analytics_id:
                assert profile.analytics_id in html
            break

    def test_malicious_links_embedded(self):
        profile = factory(6).make_profile()
        bad = ("http://evil.example.net/payload.exe",)
        html = profile.with_malicious_links(bad).render()
        assert bad[0] in html
        assert bad[0] not in profile.render()

    def test_json_content(self):
        profile = ContentProfile(
            title="api", description="", keywords="", template="",
            analytics_id="", body_seed=1, content_type="application/json",
        )
        body = profile.render()
        assert body.startswith("{")
        assert "api" in body

    def test_xml_content(self):
        profile = ContentProfile(
            title="svc", description="", keywords="", template="",
            analytics_id="", body_seed=1, content_type="application/xml",
        )
        assert profile.render().startswith("<?xml")


class TestContentFactory:
    def test_default_pages_canonical(self):
        profile = factory().make_profile(default_family="nginx")
        title, _ = DEFAULT_PAGES["nginx"]
        assert profile.title == title
        assert profile.analytics_id == ""

    def test_two_default_page_services_share_content(self):
        """Default pages must collide across tenants so the cleaning
        step has the large default clusters of §5 to remove."""
        a = factory(1).make_profile(default_family="Apache")
        b = factory(2).make_profile(default_family="Apache")
        assert a.title == b.title
        assert simhash(a.render()) == simhash(b.render())

    def test_error_profile(self):
        profile = factory().make_profile(status_behavior="404")
        assert profile.status_code == 404
        assert "Not Found" in profile.title

    def test_unique_titles(self):
        f = factory(8)
        titles = [
            f.make_profile().title for _ in range(50)
        ]
        assert len(set(titles)) > 40

    def test_tracker_share(self):
        f = factory(9, tracker_share=1.0)
        profiles = [f.make_profile() for _ in range(50)]
        with_ga = [p for p in profiles if p.status_code == 200 and p.analytics_id]
        ok = [p for p in profiles if p.status_code == 200]
        assert len(with_ga) == len(ok)

    def test_tracker_scripts_embed_fingerprints(self):
        f = factory(10, tracker_share=1.0)
        fingerprints = {spec.fingerprint_url for spec, _ in TRACKER_CATALOG}
        seen = False
        for _ in range(100):
            profile = f.make_profile()
            for script in profile.tracker_scripts:
                assert any(fp in script for fp in fingerprints)
                seen = True
        assert seen

    def test_robots_disallow_rate(self):
        f = factory(11, robots_disallow_rate=1.0)
        profile = f.make_profile()
        assert profile.robots_disallow


class TestGoogleAnalyticsRegistry:
    def test_id_format(self):
        registry = GoogleAnalyticsRegistry(random.Random(0))
        for _ in range(100):
            ga_id = registry.issue()
            assert ga_id.startswith("UA-")
            parts = ga_id.split("-")
            assert len(parts) == 3
            assert parts[1].isdigit() and parts[2].isdigit()

    def test_ids_unique(self):
        registry = GoogleAnalyticsRegistry(random.Random(1))
        ids = [registry.issue() for _ in range(500)]
        assert len(set(ids)) == len(ids)

    def test_most_accounts_single_profile(self):
        """§8.3: ~93.5% of GA accounts use a single profile."""
        registry = GoogleAnalyticsRegistry(random.Random(2))
        accounts = Counter()
        for _ in range(2000):
            account = registry.issue().split("-")[1]
            accounts[account] += 1
        singles = sum(1 for count in accounts.values() if count == 1)
        assert singles / len(accounts) > 0.75
