"""Provider topologies: regions, advertised prefixes, VPC/classic split.

The paper seeds WhoWas with the published EC2 and Azure address ranges
(4,702,208 and 495,872 IPs; §6) and uses cartography to label every EC2
/22 prefix as VPC or classic (Table 2).  We synthesise topologies with
the same *structure* — per-region prefix lists with region-specific VPC
shares — at a configurable scale.

Region weights follow the relative region sizes implied by Table 2
(prefix counts ÷ VPC percentage), and each region's ``vpc_fraction``
matches the "% all IPs in region" column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .addressing import AddressSpace, Prefix, Region

__all__ = [
    "NetKind",
    "RegionSpec",
    "ProviderSpec",
    "ProviderTopology",
    "EC2_SPEC",
    "AZURE_SPEC",
]


class NetKind:
    """Networking kind labels for prefixes and deployments."""

    CLASSIC = "classic"
    VPC = "vpc"


@dataclass(frozen=True)
class RegionSpec:
    """A region's share of the provider's space and its VPC share."""

    name: str
    weight: float          # fraction of the provider's total IPs
    vpc_fraction: float    # fraction of the region's prefixes that are VPC


@dataclass(frozen=True)
class ProviderSpec:
    """Static description of a cloud provider."""

    name: str
    regions: tuple[RegionSpec, ...]
    supports_vpc: bool
    #: First octet of the synthetic address space (EC2 ≈ 54.x, Azure ≈ 137.x).
    base_network: str
    #: Prefix granularity for allocation and cartography.  The paper maps
    #: EC2 at /22; None (the default) picks a length so the space holds
    #: roughly 256 prefixes, keeping per-region VPC shares meaningful at
    #: any scale.
    prefix_length: int | None = None

    def build(self, total_ips: int, seed: int = 0) -> "ProviderTopology":
        """Materialise a topology with approximately *total_ips* addresses."""
        return ProviderTopology(self, total_ips, seed)

    def resolve_prefix_length(self, total_ips: int) -> int:
        if self.prefix_length is not None:
            return self.prefix_length
        length = 32
        while length > 22 and (1 << (32 - length)) < total_ips // 256:
            length -= 1
        return min(length, 28)


class ProviderTopology:
    """A concrete, scaled address layout for one provider.

    Exposes the :class:`AddressSpace`, the networking kind of every
    prefix, and region lookups.  Prefixes are carved contiguously from
    ``base_network``; region order is fixed so layouts are reproducible.
    """

    def __init__(self, spec: ProviderSpec, total_ips: int, seed: int = 0):
        if total_ips <= 0:
            raise ValueError("total_ips must be positive")
        self.spec = spec
        prefix_length = spec.resolve_prefix_length(total_ips)
        prefix_size = 1 << (32 - prefix_length)
        total_prefixes = max(len(spec.regions), total_ips // prefix_size)
        rng = random.Random(seed ^ 0x5EED)

        base = _parse_base(spec.base_network)
        regions: list[Region] = []
        self._kind_by_prefix: dict[Prefix, str] = {}
        cursor = base
        weight_sum = sum(r.weight for r in spec.regions)
        for region_spec in spec.regions:
            count = max(1, round(total_prefixes * region_spec.weight / weight_sum))
            prefixes = []
            for _ in range(count):
                prefix = Prefix(cursor, prefix_length)
                prefixes.append(prefix)
                cursor += prefix_size
            vpc_count = (
                round(count * region_spec.vpc_fraction) if spec.supports_vpc else 0
            )
            vpc_set = set(rng.sample(range(count), vpc_count)) if vpc_count else set()
            for index, prefix in enumerate(prefixes):
                kind = NetKind.VPC if index in vpc_set else NetKind.CLASSIC
                self._kind_by_prefix[prefix] = kind
            regions.append(Region(region_spec.name, prefixes))
        self.space = AddressSpace(regions)

    def kind_of(self, address: int) -> str:
        """Networking kind (classic/vpc) of an address."""
        prefix = self.space.prefix_of(address)
        if prefix is None:
            raise KeyError(f"address not in {self.spec.name} space")
        return self._kind_by_prefix[prefix]

    def region_of(self, address: int) -> str:
        region = self.space.region_of(address)
        if region is None:
            raise KeyError(f"address not in {self.spec.name} space")
        return region.name

    def addresses_by_kind(self, region_name: str) -> dict[str, list[int]]:
        """All addresses of a region, bucketed by networking kind."""
        region = self.space.region(region_name)
        buckets: dict[str, list[int]] = {NetKind.CLASSIC: [], NetKind.VPC: []}
        for prefix in region.prefixes:
            buckets[self._kind_by_prefix[prefix]].extend(prefix)
        return buckets

    def vpc_prefix_summary(self) -> dict[str, tuple[int, float]]:
        """Ground truth for Table 2: per region, the number of VPC
        prefixes and the VPC share of the region's IPs."""
        summary: dict[str, tuple[int, float]] = {}
        for region in self.space.regions:
            vpc = sum(
                1 for p in region.prefixes
                if self._kind_by_prefix[p] == NetKind.VPC
            )
            vpc_ips = sum(
                p.size for p in region.prefixes
                if self._kind_by_prefix[p] == NetKind.VPC
            )
            share = (vpc_ips / region.size * 100.0) if region.size else 0.0
            summary[region.name] = (vpc, share)
        return summary


def _parse_base(dotted: str) -> int:
    parts = [int(p) for p in dotted.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise ValueError(f"bad base network: {dotted!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


#: EC2 regions: weights from region sizes implied by Table 2, VPC shares
#: from its "% all IPs in region" column.
EC2_SPEC = ProviderSpec(
    name="EC2",
    regions=(
        RegionSpec("USEast", 0.445, 0.137),
        RegionSpec("USWest_Oregon", 0.153, 0.364),
        RegionSpec("EU", 0.130, 0.208),
        RegionSpec("AsiaTokyo", 0.067, 0.320),
        RegionSpec("USWest_NC", 0.070, 0.225),
        RegionSpec("AsiaSingapore", 0.053, 0.339),
        RegionSpec("AsiaSydney", 0.042, 0.333),
        RegionSpec("SouthAmerica", 0.040, 0.319),
    ),
    supports_vpc=True,
    base_network="54.0.0.0",
)

#: Azure offers only on-demand instances and no classic/VPC split the
#: cartography can observe; regions approximate the 2013 datacenters.
AZURE_SPEC = ProviderSpec(
    name="Azure",
    regions=(
        RegionSpec("US_East", 0.30, 0.0),
        RegionSpec("US_West", 0.22, 0.0),
        RegionSpec("Europe_West", 0.18, 0.0),
        RegionSpec("Europe_North", 0.12, 0.0),
        RegionSpec("Asia_East", 0.10, 0.0),
        RegionSpec("Asia_SouthEast", 0.08, 0.0),
    ),
    supports_vpc=False,
    base_network="137.116.0.0",
)
