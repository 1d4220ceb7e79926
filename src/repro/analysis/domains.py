"""Active-DNS correlation of WhoWas data (§9 future work).

WhoWas fetches pages by bare IP, so virtual-host setups answer 404 or a
placeholder — but §4 observes that such pages often leak the intended
site's domain in their content.  This module closes the loop:

1. collect candidate domains from fetched page bodies,
2. interrogate DNS for each candidate (active measurement),
3. confirm ownership when a candidate resolves back onto the very IP
   that served the page.

Confirmed correlations recover ownership for IPs the clustering could
not label (error-page responses), and let analyses tie multiple IPs of
one domain together independent of content similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from .clustering import ClusteringResult
from .dataset import Dataset

__all__ = ["CorrelationReport", "DomainCorrelation", "DomainCorrelator"]

#: Resolver signature: domain -> list of A-record IPs (empty if NXDOMAIN).
Resolver = Callable[[str], list[int]]


@dataclass(frozen=True)
class DomainCorrelation:
    """One confirmed domain → IP-ownership correlation."""

    domain: str
    resolved_ips: tuple[int, ...]
    #: IPs whose fetched pages mentioned the domain *and* are among the
    #: domain's A records — confirmed ownership.
    confirmed_ips: tuple[int, ...]
    #: Confirmed IPs whose pages were error responses (the §4 vhost
    #: limitation) — ownership recovered despite unusable content.
    recovered_error_ips: tuple[int, ...]
    clusters: tuple[int, ...] = ()

    @property
    def confirmed(self) -> bool:
        return bool(self.confirmed_ips)


@dataclass
class CorrelationReport:
    """Outcome of one correlation sweep."""

    candidates: int
    resolved: int
    correlations: list[DomainCorrelation] = field(default_factory=list)

    def confirmed(self) -> list[DomainCorrelation]:
        return [c for c in self.correlations if c.confirmed]

    def recovered_error_ips(self) -> set[int]:
        recovered: set[int] = set()
        for correlation in self.correlations:
            recovered.update(correlation.recovered_error_ips)
        return recovered


class DomainCorrelator:
    """Runs the collect → resolve → confirm pipeline."""

    def __init__(
        self,
        dataset: Dataset,
        resolver: Resolver,
        clustering: ClusteringResult | None = None,
    ):
        self.dataset = dataset
        self.resolver = resolver
        self.clustering = clustering

    def candidate_domains(self) -> dict[str, set[int]]:
        """Domains seen in page bodies -> the IPs that mentioned them."""
        candidates: dict[str, set[int]] = {}
        for (ip, _), (_, domains) in self.dataset.page_text.items():
            for domain in domains:
                candidates.setdefault(domain, set()).add(ip)
        return candidates

    def correlate(self, domains: Iterable[str] | None = None) -> CorrelationReport:
        """Resolve candidates and confirm which mentions are ownership."""
        candidates = self.candidate_domains()
        if domains is not None:
            requested = set(domains)
            candidates = {
                d: ips for d, ips in candidates.items() if d in requested
            }
        error_ips = self._error_page_ips()
        report = CorrelationReport(candidates=len(candidates), resolved=0)
        for domain, mentioning_ips in sorted(candidates.items()):
            resolved = self.resolver(domain)
            if not resolved:
                continue
            report.resolved += 1
            resolved_set = set(resolved)
            confirmed = tuple(sorted(mentioning_ips & resolved_set))
            recovered = tuple(ip for ip in confirmed if ip in error_ips)
            clusters: tuple[int, ...] = ()
            if self.clustering is not None and confirmed:
                found = {
                    cid
                    for ip in confirmed
                    for cid in self._clusters_of_ip(ip)
                }
                clusters = tuple(sorted(found))
            report.correlations.append(
                DomainCorrelation(
                    domain=domain,
                    resolved_ips=tuple(sorted(resolved_set)),
                    confirmed_ips=confirmed,
                    recovered_error_ips=recovered,
                    clusters=clusters,
                )
            )
        return report

    def _error_page_ips(self) -> set[int]:
        """IPs that only ever answered with error-class pages."""
        saw_ok: set[int] = set()
        saw_error: set[int] = set()
        for obs in self.dataset.observations():
            if obs.status_code is None:
                continue
            if obs.status_class == "200":
                saw_ok.add(obs.ip)
            else:
                saw_error.add(obs.ip)
        return saw_error - saw_ok

    def _clusters_of_ip(self, ip: int) -> set[int]:
        assert self.clustering is not None
        found: set[int] = set()
        for obs in self.dataset.history(ip):
            cid = self.clustering.cluster_of(ip, obs.round_id)
            if cid is not None:
                found.add(cid)
        return found
