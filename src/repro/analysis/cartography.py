"""Cloud cartography: labeling EC2 IPs as VPC or classic via DNS (§5).

The decision rule, per public IP, resolving its EC2-style hostname from
inside the cloud:

* answer is an **SOA** record → no active instance, and the IP is
  **classic**;
* answer is an IP **inside EC2's public space** → the IP is **VPC**;
* any other answer (a private address) → **classic** networking.

Applying the rule across the space produces a per-prefix map (Table 2
reports it at /22 granularity) that other analyses use to split
clusters and time series by networking kind (Figures 13 and 14).
"""

from __future__ import annotations

from ..cloudsim.addressing import Prefix
from ..cloudsim.dns import CloudDns, public_hostname
from ..cloudsim.providers import NetKind, ProviderTopology

__all__ = ["CartographyMap", "Cartographer", "VpcUsageAnalyzer"]


class CartographyMap:
    """The measured prefix → networking-kind map, with O(1) IP lookup.

    All of a provider's advertised prefixes share one length, so lookup
    is a mask-and-dict-get.
    """

    def __init__(self, prefix_kinds: dict[Prefix, str]):
        self.prefix_kinds = dict(prefix_kinds)
        lengths = {p.length for p in prefix_kinds}
        if len(lengths) > 1:
            raise ValueError(f"mixed prefix lengths: {sorted(lengths)}")
        self._length = lengths.pop() if lengths else 32
        self._mask = ~((1 << (32 - self._length)) - 1) & 0xFFFFFFFF
        self._bases = {p.network: kind for p, kind in prefix_kinds.items()}

    def kind_of(self, ip: int) -> str:
        kind = self._bases.get(ip & self._mask)
        if kind is None:
            raise KeyError(f"no prefix covers {ip}")
        return kind


class Cartographer:
    """One-time DNS sweep labeling every prefix VPC or classic."""

    def __init__(self, topology: ProviderTopology, dns: CloudDns):
        self.topology = topology
        self.dns = dns

    def classify_ip(self, ip: int) -> str:
        """Apply the §5 decision rule to one address."""
        answer = self.dns.resolve(public_hostname(ip))
        if answer.is_soa:
            return NetKind.CLASSIC
        if self.dns.in_public_space(answer.address):
            return NetKind.VPC
        return NetKind.CLASSIC

    def map_prefixes(self, sample_per_prefix: int | None = None) -> CartographyMap:
        """Label every advertised prefix.

        The paper queries every public IP (with a low rate limit); pass
        *sample_per_prefix* to query only evenly-spaced addresses per
        prefix — VPC labels are a per-prefix property, so any VPC answer
        marks the whole prefix.
        """
        prefix_kinds: dict[Prefix, str] = {}
        for region in self.topology.space.regions:
            for prefix in region.prefixes:
                prefix_kinds[prefix] = self._classify_prefix(
                    prefix, sample_per_prefix
                )
        return CartographyMap(prefix_kinds)

    def _classify_prefix(self, prefix: Prefix,
                         sample_per_prefix: int | None) -> str:
        if sample_per_prefix is None or sample_per_prefix >= prefix.size:
            addresses = iter(prefix)
        else:
            step = max(1, prefix.size // sample_per_prefix)
            addresses = iter(range(prefix.first, prefix.last + 1, step))
        for address in addresses:
            if self.classify_ip(address) == NetKind.VPC:
                return NetKind.VPC
        return NetKind.CLASSIC

    def summarize(self, cartography: CartographyMap) -> dict[str, tuple[int, float]]:
        """Table 2: per region, number of VPC prefixes and the share of
        the region's IPs they cover."""
        summary: dict[str, tuple[int, float]] = {}
        for region in self.topology.space.regions:
            vpc_prefixes = [
                p for p in region.prefixes
                if cartography.prefix_kinds[p] == NetKind.VPC
            ]
            vpc_ips = sum(p.size for p in vpc_prefixes)
            share = vpc_ips / region.size * 100.0 if region.size else 0.0
            summary[region.name] = (len(vpc_prefixes), share)
        return summary


class VpcUsageAnalyzer:
    """VPC vs classic usage over time (Figures 13 and 14, §8.1).

    Splits per-round responsive/available IP counts by networking kind,
    and classifies clusters as classic-only / VPC-only / mixed per round
    — including the transition counts between those groups over the
    campaign.
    """

    def __init__(self, dataset, clustering, cartography: CartographyMap):
        self.dataset = dataset
        self.clustering = clustering
        self.cartography = cartography

    def ip_series(self) -> dict[str, list[int]]:
        """Per-round responsive/available counts for each kind."""
        series = {
            "classic_responsive": [],
            "classic_available": [],
            "vpc_responsive": [],
            "vpc_available": [],
        }
        for rid in self.dataset.round_ids:
            counts = {key: 0 for key in series}
            for obs in self.dataset.by_round[rid]:
                kind = self.cartography.kind_of(obs.ip)
                counts[f"{kind}_responsive"] += 1
                if obs.available:
                    counts[f"{kind}_available"] += 1
            for key in series:
                series[key].append(counts[key])
        return series

    def cluster_kind(self, cluster) -> str:
        """classic / vpc / mixed, over the cluster's whole life."""
        kinds = {self.cartography.kind_of(ip) for ip in cluster.ips()}
        if kinds == {NetKind.CLASSIC}:
            return "classic-only"
        if kinds == {NetKind.VPC}:
            return "vpc-only"
        return "mixed"

    def cluster_kind_totals(self) -> dict[str, int]:
        """Whole-campaign cluster counts per kind (§8.1's 72.9% /
        24.5% / 2.6% split)."""
        totals = {"classic-only": 0, "vpc-only": 0, "mixed": 0}
        for cluster in self.clustering.clusters.values():
            totals[self.cluster_kind(cluster)] += 1
        return totals

    def cluster_kind_series(self) -> dict[str, list[int]]:
        """Per-round counts of classic-only / vpc-only / mixed clusters
        (Figure 14), using each cluster's per-round IP sets."""
        series = {"classic-only": [], "vpc-only": [], "mixed": []}
        per_round_kind: dict[int, dict[int, str]] = {
            rid: {} for rid in self.dataset.round_ids
        }
        for cluster in self.clustering.clusters.values():
            by_round: dict[int, set[str]] = {}
            for ip, rid in cluster.members:
                by_round.setdefault(rid, set()).add(self.cartography.kind_of(ip))
            for rid, kinds in by_round.items():
                if kinds == {NetKind.CLASSIC}:
                    label = "classic-only"
                elif kinds == {NetKind.VPC}:
                    label = "vpc-only"
                else:
                    label = "mixed"
                per_round_kind[rid][cluster.cluster_id] = label
        for rid in self.dataset.round_ids:
            counts = {"classic-only": 0, "vpc-only": 0, "mixed": 0}
            for label in per_round_kind[rid].values():
                counts[label] += 1
            for key in series:
                series[key].append(counts[key])
        return series

    def transitions(self) -> dict[str, int]:
        """Clusters that moved classic→VPC or VPC→classic over time,
        judged by their first vs last round with members."""
        moves = {"classic_to_vpc": 0, "vpc_to_classic": 0}
        for cluster in self.clustering.clusters.values():
            by_round: dict[int, set[str]] = {}
            for ip, rid in cluster.members:
                by_round.setdefault(rid, set()).add(self.cartography.kind_of(ip))
            if len(by_round) < 2:
                continue
            ordered = [by_round[rid] for rid in self.dataset.round_ids
                       if rid in by_round]
            first, last = ordered[0], ordered[-1]
            if first == {NetKind.CLASSIC} and NetKind.VPC in last:
                moves["classic_to_vpc"] += 1
            elif first == {NetKind.VPC} and NetKind.CLASSIC in last:
                moves["vpc_to_classic"] += 1
        return moves
