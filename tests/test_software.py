"""Tests for software ecosystem distributions and weighted sampling."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloudsim.software import (
    AZURE_CATALOG,
    EC2_CATALOG,
    VULNERABLE_SERVERS,
    SoftwareStack,
    WeightedChoice,
)


class TestWeightedChoice:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WeightedChoice([])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            WeightedChoice([("a", 0.0)])

    def test_single_item(self):
        choice = WeightedChoice([("only", 5.0)])
        rng = random.Random(0)
        assert all(choice.sample(rng) == "only" for _ in range(20))

    def test_probability_normalised(self):
        choice = WeightedChoice([("a", 1.0), ("b", 3.0)])
        assert choice.items == ("a", "b")
        assert choice.weights == pytest.approx((0.25, 0.75))

    def test_sampling_matches_weights(self):
        choice = WeightedChoice([("a", 8.0), ("b", 2.0)])
        rng = random.Random(42)
        counts = Counter(choice.sample(rng) for _ in range(5000))
        assert counts["a"] / 5000 == pytest.approx(0.8, abs=0.03)

    @given(st.lists(st.tuples(st.text(min_size=1, max_size=3),
                              st.floats(0.01, 100.0)),
                    min_size=1, max_size=10))
    def test_sample_always_a_member(self, weighted):
        choice = WeightedChoice(weighted)
        rng = random.Random(7)
        items = {item for item, _ in weighted}
        assert all(choice.sample(rng) in items for _ in range(25))


def shares(choice: WeightedChoice) -> dict:
    return dict(zip(choice.items, choice.weights))


class TestCatalogs:
    def test_ec2_server_ranking(self):
        """§8.3: Apache > nginx > IIS on EC2."""
        share = shares(EC2_CATALOG.server_families)
        assert share["Apache"] > share["nginx"] > share["Microsoft-IIS"]

    def test_azure_iis_dominates(self):
        """§8.3: Microsoft-IIS runs on ~89% of identified Azure servers."""
        assert shares(AZURE_CATALOG.server_families)["Microsoft-IIS"] > 0.8

    def test_sampled_stacks_consistent(self):
        rng = random.Random(11)
        for catalog in (EC2_CATALOG, AZURE_CATALOG):
            for _ in range(200):
                stack = catalog.sample_stack(rng)
                assert isinstance(stack, SoftwareStack)
                if stack.server:
                    assert stack.server_family
                    assert stack.server.lower().startswith(
                        stack.server_family.lower().split("-")[0][:4]
                    ) or stack.server_family in stack.server
                else:
                    assert stack.server_family == ""

    def test_stale_versions_present(self):
        """§8.3: most servers run dated versions (Apache 2.2.* etc.)."""
        rng = random.Random(3)
        versions = Counter(
            EC2_CATALOG.sample_stack(rng).server for _ in range(3000)
        )
        apache_22 = sum(
            count for server, count in versions.items()
            if server.startswith("Apache/2.2")
        )
        apache_24 = sum(
            count for server, count in versions.items()
            if server.startswith("Apache/2.4")
        )
        assert apache_22 > apache_24

    def test_vulnerable_servers_sampled(self):
        rng = random.Random(5)
        servers = {EC2_CATALOG.sample_stack(rng).server for _ in range(5000)}
        assert servers & VULNERABLE_SERVERS

    def test_backends_follow_catalog(self):
        rng = random.Random(9)
        backends = Counter(
            b for b in (
                EC2_CATALOG.sample_stack(rng).backend for _ in range(3000)
            ) if b
        )
        php = sum(c for b, c in backends.items() if b.startswith("PHP"))
        aspnet = backends.get("ASP.NET", 0)
        assert php > aspnet  # §8.3: PHP 52.6% vs ASP.NET 29.0% on EC2

    def test_wordpress_dominates_templates(self):
        rng = random.Random(13)
        templates = Counter(
            t for t in (
                EC2_CATALOG.sample_stack(rng).template for _ in range(8000)
            ) if t
        )
        wordpress = sum(
            c for t, c in templates.items() if t.startswith("WordPress")
        )
        assert wordpress > sum(templates.values()) * 0.5
