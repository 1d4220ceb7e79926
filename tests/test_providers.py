"""Tests for provider topologies and IP pools."""

from __future__ import annotations

import random

import pytest

from repro.cloudsim.instances import IpPool
from repro.cloudsim.providers import (
    AZURE_SPEC,
    EC2_SPEC,
    NetKind,
)


class TestProviderTopology:
    def test_total_size_near_target(self):
        topology = EC2_SPEC.build(16384, seed=1)
        assert abs(topology.space.size - 16384) / 16384 < 0.1

    def test_region_names(self):
        topology = EC2_SPEC.build(8192, seed=1)
        names = {r.name for r in topology.space.regions}
        assert "USEast" in names
        assert len(names) == 8

    def test_useast_largest(self):
        topology = EC2_SPEC.build(8192, seed=1)
        sizes = {r.name: r.size for r in topology.space.regions}
        assert sizes["USEast"] == max(sizes.values())

    def test_vpc_share_matches_spec(self):
        topology = EC2_SPEC.build(32768, seed=2)
        summary = topology.vpc_prefix_summary()
        for region_spec in EC2_SPEC.regions:
            _, share = summary[region_spec.name]
            assert share == pytest.approx(
                region_spec.vpc_fraction * 100.0, abs=12.0
            )

    def test_azure_has_no_vpc(self):
        topology = AZURE_SPEC.build(4096, seed=1)
        summary = topology.vpc_prefix_summary()
        assert all(count == 0 for count, _ in summary.values())

    def test_kind_and_region_lookup(self):
        topology = EC2_SPEC.build(8192, seed=3)
        for address in list(topology.space.addresses())[::997]:
            assert topology.kind_of(address) in (NetKind.CLASSIC, NetKind.VPC)
            assert topology.region_of(address)

    def test_lookup_outside_space(self):
        topology = EC2_SPEC.build(1024, seed=1)
        with pytest.raises(KeyError):
            topology.kind_of(1)

    def test_deterministic_given_seed(self):
        a = EC2_SPEC.build(4096, seed=9)
        b = EC2_SPEC.build(4096, seed=9)
        assert list(a.space.addresses())[:100] == list(b.space.addresses())[:100]
        sample = list(a.space.addresses())[::503]
        assert [a.kind_of(x) for x in sample] == [b.kind_of(x) for x in sample]

    def test_zero_ips_rejected(self):
        with pytest.raises(ValueError):
            EC2_SPEC.build(0)

    def test_disjoint_provider_spaces(self):
        ec2 = EC2_SPEC.build(4096, seed=1)
        azure = AZURE_SPEC.build(4096, seed=1)
        ec2_sample = set(list(ec2.space.addresses())[::100])
        assert not any(a in azure.space for a in ec2_sample)


def free_addresses(pool: IpPool, kind: str) -> set[int]:
    """The free addresses of *kind*, read through ``acquire`` and
    ``release`` alone: every address the pool hands out until it runs
    dry, all given back."""
    taken = []
    while (address := pool.acquire(kind)) is not None:
        taken.append(address)
    for address in taken:
        pool.release(address)
    return {address for address in taken if pool.kind_of(address) == kind}


class TestIpPool:
    def make_pool(self, rng=None) -> IpPool:
        return IpPool(
            {
                NetKind.CLASSIC: list(range(100, 110)),
                NetKind.VPC: list(range(200, 205)),
            },
            rng or random.Random(0),
        )

    def test_acquire_release_cycle(self):
        pool = self.make_pool()
        address = pool.acquire(NetKind.CLASSIC)
        assert 100 <= address < 110
        assert free_addresses(pool, NetKind.CLASSIC) == (
            set(range(100, 110)) - {address})
        pool.release(address)
        assert free_addresses(pool, NetKind.CLASSIC) == set(range(100, 110))

    def test_kind_respected(self):
        pool = self.make_pool()
        address = pool.acquire(NetKind.VPC)
        assert 200 <= address < 205
        assert pool.kind_of(address) == NetKind.VPC

    def test_mixed_prefers_classic(self):
        pool = self.make_pool()
        address = pool.acquire("mixed")
        assert 100 <= address < 110

    def test_fallback_when_exhausted(self):
        pool = self.make_pool()
        for _ in range(5):
            pool.acquire(NetKind.VPC)
        # VPC empty: falls back to classic rather than failing.
        address = pool.acquire(NetKind.VPC)
        assert 100 <= address < 110

    def test_none_when_fully_exhausted(self):
        pool = self.make_pool()
        for _ in range(15):
            assert pool.acquire("mixed") is not None
        assert pool.acquire("mixed") is None

    def test_release_unknown_rejected(self):
        pool = self.make_pool()
        with pytest.raises(KeyError):
            pool.release(999)

    def test_no_duplicate_acquisitions(self):
        pool = self.make_pool()
        seen = set()
        for _ in range(15):
            address = pool.acquire("mixed")
            assert address not in seen
            seen.add(address)


class TestPrefixLengthResolution:
    def test_auto_length_bounds(self):
        assert 22 <= EC2_SPEC.resolve_prefix_length(1024) <= 28
        assert 22 <= EC2_SPEC.resolve_prefix_length(10_000_000) <= 28

    def test_large_space_uses_short_prefixes(self):
        small = EC2_SPEC.resolve_prefix_length(4096)
        large = EC2_SPEC.resolve_prefix_length(4_000_000)
        assert large < small

    def test_explicit_length_respected(self):
        import dataclasses

        spec = dataclasses.replace(EC2_SPEC, prefix_length=24)
        assert spec.resolve_prefix_length(512) == 24
        topology = spec.build(2048, seed=1)
        assert {prefix.length for region in topology.space.regions
                for prefix in region.prefixes} == {24}
