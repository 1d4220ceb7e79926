"""Finding and analysing malicious activity (§8.2).

Two independent detectors are joined with WhoWas data:

* **Safe Browsing** — every URL extracted from fetched pages is queried
  per round; an IP is *malicious* when its page embeds a listed URL.
  WhoWas then measures malicious-IP lifetimes (Figure 16) and finds
  *linchpin* IPs whose pages aggregate many malicious URLs.
* **VirusTotal** — per-IP reports, applying the ≥ 2-engine consensus
  rule; WhoWas classifies the content behaviour of detected IPs into
  the three types of §8.2, measures blacklist lag (Figure 19), breaks
  detections down by region and month (Table 17) and ranks the domains
  of malicious URLs (Table 18).  Clusters also *spread* labels: IPs
  sharing a final cluster with a detected IP are flagged too.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..cloudsim.blacklist import SafeBrowsingSim, VirusTotalReport, VirusTotalSim
from .clustering import ClusteringResult
from .dataset import Dataset

__all__ = [
    "MaliciousIp",
    "SafeBrowsingFindings",
    "SafeBrowsingAnalyzer",
    "VirusTotalFindings",
    "VirusTotalAnalyzer",
]


@dataclass
class MaliciousIp:
    """One IP observed hosting a page with blacklisted URLs."""

    ip: int
    urls: set[str] = field(default_factory=set)
    categories: set[str] = field(default_factory=set)
    #: Timestamps (days) of rounds where the page carried a listed URL.
    malicious_days: list[int] = field(default_factory=list)
    clusters: set[int] = field(default_factory=set)

    @property
    def lifetime_days(self) -> int:
        """Days between first and last malicious observation, inclusive."""
        if not self.malicious_days:
            return 0
        return self.malicious_days[-1] - self.malicious_days[0] + 1

    @property
    def is_linchpin(self) -> bool:
        """Linchpin IPs aggregate many malicious URLs (§8.2 uses pages
        with over a hundred; ≥ 20 marks the aggregation behaviour)."""
        return len(self.urls) >= 20


@dataclass(frozen=True)
class SafeBrowsingFindings:
    """Aggregate Safe Browsing results for one campaign."""

    malicious_ips: dict[int, MaliciousIp]
    distinct_urls: int
    phishing_pages: int
    malware_pages: int
    clusters: set[int]

    def lifetimes(self) -> list[int]:
        return sorted(m.lifetime_days for m in self.malicious_ips.values())

    def linchpins(self) -> list[MaliciousIp]:
        return [m for m in self.malicious_ips.values() if m.is_linchpin]


class SafeBrowsingAnalyzer:
    """Queries every extracted URL against Safe Browsing per round."""

    def __init__(self, dataset: Dataset, safe_browsing: SafeBrowsingSim,
                 clustering: ClusteringResult | None = None):
        self.dataset = dataset
        self.safe_browsing = safe_browsing
        self.clustering = clustering

    def scan(self) -> SafeBrowsingFindings:
        malicious: dict[int, MaliciousIp] = {}
        all_urls: set[str] = set()
        categories_per_ip: Counter[str] = Counter()
        page_text = self.dataset.page_text
        for obs in self.dataset.observations():
            links, _ = page_text.get(obs.key(), ((), ()))
            if not links:
                continue
            day = obs.timestamp
            hits = [
                (url, self.safe_browsing.lookup(url, day))
                for url in links
            ]
            listed = [(url, status) for url, status in hits if status != "ok"]
            if not listed:
                continue
            record = malicious.setdefault(obs.ip, MaliciousIp(obs.ip))
            for url, status in listed:
                record.urls.add(url)
                record.categories.add(status)
                all_urls.add(url)
            record.malicious_days.append(day)
            if self.clustering is not None:
                cid = self.clustering.cluster_of(obs.ip, obs.round_id)
                if cid is not None:
                    record.clusters.add(cid)
        for record in malicious.values():
            record.malicious_days.sort()
            label = "phishing" if "phishing" in record.categories else "malware"
            categories_per_ip[label] += 1
        clusters = {
            cid for record in malicious.values() for cid in record.clusters
        }
        return SafeBrowsingFindings(
            malicious_ips=malicious,
            distinct_urls=len(all_urls),
            phishing_pages=categories_per_ip["phishing"],
            malware_pages=categories_per_ip["malware"],
            clusters=clusters,
        )

    def lifetimes_by_kind(self, findings: SafeBrowsingFindings,
                          kind_of) -> dict[str, list[int]]:
        """Figure 16's classic/VPC split of malicious-IP lifetimes."""
        split: dict[str, list[int]] = {"classic": [], "vpc": []}
        for record in findings.malicious_ips.values():
            split[kind_of(record.ip)].append(record.lifetime_days)
        return {kind: sorted(values) for kind, values in split.items()}


@dataclass(frozen=True)
class VirusTotalFindings:
    """Aggregate VirusTotal results for one campaign."""

    reports: dict[int, VirusTotalReport]        # malicious (≥2 engines) only
    by_region_month: dict[tuple[str, int], int]  # Table 17
    domain_counts: Counter                       # Table 18
    behaviour_types: dict[int, int]              # ip -> 1/2/3 (clustered IPs)
    lag_before: dict[int, list[float]]           # type -> days to detection
    lag_after: dict[int, list[float]]            # type -> days alive after
    spread_labels: dict[int, set[int]]           # seed ip -> extra ips

    @property
    def malicious_ip_count(self) -> int:
        return len(self.reports)

    def top_domains(self, count: int = 10) -> list[tuple[str, int]]:
        return self.domain_counts.most_common(count)

    def region_month_table(self) -> dict[str, dict[int, int]]:
        table: dict[str, dict[int, int]] = {}
        for (region, month), value in self.by_region_month.items():
            table.setdefault(region, {})[month] = value
        return table


class VirusTotalAnalyzer:
    """Joins VirusTotal reports with WhoWas page histories."""

    def __init__(
        self,
        dataset: Dataset,
        virustotal: VirusTotalSim,
        clustering: ClusteringResult | None = None,
        *,
        region_of=None,
        min_engines: int = 2,
        days_per_month: int = 31,
    ):
        self.dataset = dataset
        self.virustotal = virustotal
        self.clustering = clustering
        self._region_of = region_of
        self.min_engines = min_engines
        self.days_per_month = days_per_month

    # ------------------------------------------------------------------

    def collect_reports(self) -> dict[int, VirusTotalReport]:
        """Query VT for every IP ever responsive; keep ≥ N-engine hits."""
        malicious: dict[int, VirusTotalReport] = {}
        for ip in self.dataset.by_ip:
            report = self.virustotal.report(ip)
            if report.is_malicious(self.min_engines):
                malicious[ip] = report
        return malicious

    def analyze(self) -> VirusTotalFindings:
        reports = self.collect_reports()

        by_region_month: Counter = Counter()
        domain_counts: Counter = Counter()
        for ip, report in reports.items():
            months = {d.day // self.days_per_month for d in report.detections}
            region = self._region_of(ip) if self._region_of else "all"
            for month in months:
                by_region_month[(region, month)] += 1
            for detection in report.detections:
                domain = detection.url.split("/")[2]
                domain_counts[domain] += 1

        behaviour: dict[int, int] = {}
        lag_before: dict[int, list[float]] = {1: [], 2: [], 3: []}
        lag_after: dict[int, list[float]] = {1: [], 2: [], 3: []}
        for ip, report in reports.items():
            kind = self._behaviour_type(ip)
            if kind is None:
                continue
            behaviour[ip] = kind
            first = report.first_detection_day()
            last = report.last_detection_day()
            pages = [o for o in self.dataset.history(ip) if o.has_page]
            if first is not None and pages:
                first_page = pages[0].timestamp
                lag_before[kind].append(max(0.0, first - first_page))
            if last is not None and pages:
                last_page = pages[-1].timestamp
                lag_after[kind].append(max(0.0, last_page - last))

        spread = self._spread_labels(reports)
        return VirusTotalFindings(
            reports=reports,
            by_region_month=dict(by_region_month),
            domain_counts=domain_counts,
            behaviour_types=behaviour,
            lag_before=lag_before,
            lag_after=lag_after,
            spread_labels=spread,
        )

    # ------------------------------------------------------------------

    def _behaviour_type(self, ip: int) -> int | None:
        """Classify the content behaviour of a detected IP (§8.2):
        type 1 hosts one unchanged page, type 2's page comes and goes,
        type 3 hosts several distinct pages.  Needs clustered content."""
        if self.clustering is None:
            return None
        sequence: list[int | None] = []
        for obs in self.dataset.history(ip):
            if obs.has_page:
                sequence.append(self.clustering.cluster_of(obs.ip, obs.round_id))
            else:
                sequence.append(None)
        observed = [cid for cid in sequence if cid is not None]
        if not observed:
            return None
        distinct = len(set(observed))
        if distinct >= 3:
            return 3
        # Gap detection: the same cluster disappears then reappears.
        compact: list[int | None] = []
        for cid in sequence:
            if not compact or compact[-1] != cid:
                compact.append(cid)
        for cid in set(observed):
            if compact.count(cid) > 1:
                return 2
        return 1 if distinct == 1 else 3

    def _spread_labels(
        self, reports: dict[int, VirusTotalReport]
    ) -> dict[int, set[int]]:
        """Label additional IPs via shared final clusters (§8.2's
        "+191 IPs" result)."""
        if self.clustering is None:
            return {}
        spread: dict[int, set[int]] = {}
        for ip in reports:
            extra: set[int] = set()
            for obs in self.dataset.history(ip):
                if not obs.has_page:
                    continue
                cid = self.clustering.cluster_of(obs.ip, obs.round_id)
                if cid is None:
                    continue
                cluster = self.clustering.clusters[cid]
                extra |= cluster.ips() - {ip} - set(reports)
            if extra:
                spread[ip] = extra
        return spread
