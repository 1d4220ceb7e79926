"""Third-party tracker analysis (§8.3, Table 20).

Trackers are found by searching page HTML for each tracker's
characteristic URL — the same fingerprint idea as the paper's MySQL
regular expressions (e.g. ``http://b.scorecardresearch.com`` inside a
script tag).  Searching the stored bodies directly in the measurement
database keeps the method faithful: this module scans the
:class:`~repro.core.store.StoreBackend`'s ``body`` column, not the
in-memory dataset (whose observations carry no bodies), and searches
each distinct body (``body_digest``) once.

Google Analytics gets the extra account treatment of §8.3: IDs have the
form ``UA-<account>-<profile>``, so distinct profiles of one account
reveal multi-site owners.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..cloudsim.content import GA_TRACKER, TRACKER_CATALOG
from ..core.features import GA_ID_RE
from ..core.store import MeasurementStore
from .clustering import ClusteringResult

__all__ = ["TRACKER_FINGERPRINTS", "TrackerHits", "TrackerAnalyzer",
           "GaAccountStats", "analyze_ga_accounts"]

#: tracker name -> fingerprint URL (Table 20's tracker set).
TRACKER_FINGERPRINTS: dict[str, str] = {
    spec.name: spec.fingerprint_url for spec, _ in TRACKER_CATALOG
}
TRACKER_FINGERPRINTS[GA_TRACKER.name] = "google-analytics.com"


@dataclass(frozen=True)
class TrackerHits:
    """Tracker usage in one round (a Table 20 column pair)."""

    round_id: int
    ips_by_tracker: dict[str, set[int]]
    clusters_by_tracker: dict[str, set[int]]

    def table(self, top: int = 10) -> list[tuple[str, int, int]]:
        """(tracker, #IPs, #clusters) ranked by IP count."""
        rows = [
            (
                name,
                len(ips),
                len(self.clusters_by_tracker.get(name, ())),
            )
            for name, ips in self.ips_by_tracker.items()
        ]
        rows.sort(key=lambda row: -row[1])
        return rows[:top]

    def multi_tracker_shares(self) -> dict[int, float]:
        """Share of tracker-using IPs embedding 1, 2, 3+ trackers."""
        per_ip: Counter[int] = Counter()
        for ips in self.ips_by_tracker.values():
            for ip in ips:
                per_ip[ip] += 1
        total = len(per_ip)
        if total == 0:
            return {}
        counts: Counter[int] = Counter(per_ip.values())
        return {n: c / total * 100.0 for n, c in sorted(counts.items())}


def _fingerprints_in(body: str) -> tuple[str, ...]:
    """The trackers whose fingerprint URL *body* contains."""
    return tuple(
        name for name, fingerprint in TRACKER_FINGERPRINTS.items()
        if fingerprint in body
    )


class TrackerAnalyzer:
    """Searches stored page bodies for tracker fingerprints."""

    def __init__(self, store: MeasurementStore,
                 clustering: ClusteringResult | None = None):
        self.store = store
        self.clustering = clustering

    def scan_round(self, round_id: int) -> TrackerHits:
        """Tracker hits in one round (the paper reports the last)."""
        ips: dict[str, set[int]] = {name: set() for name in TRACKER_FINGERPRINTS}
        clusters: dict[str, set[int]] = {
            name: set() for name in TRACKER_FINGERPRINTS
        }
        trackers_of: dict[bytes, tuple[str, ...]] = {}     # by digest
        for ip, digest, body in self.store.columns(
            round_id, ("ip", "body_digest", "body")
        ):
            if not body:
                continue
            names = trackers_of.get(digest)
            if names is None:
                names = trackers_of[digest] = _fingerprints_in(body)
            for name in names:
                ips[name].add(ip)
                if self.clustering is not None:
                    cid = self.clustering.cluster_of(ip, round_id)
                    if cid is not None:
                        clusters[name].add(cid)
        ips = {name: found for name, found in ips.items() if found}
        clusters = {name: found for name, found in clusters.items() if found}
        return TrackerHits(round_id, ips, clusters)

    def ga_ids(self) -> dict[str, set[int]]:
        """All Google Analytics IDs across the campaign -> IPs using them."""
        ids: dict[str, set[int]] = {}
        for info in self.store.rounds():
            for ip, digest, analytics_id in self.store.columns(
                info.round_id, ("ip", "body_digest", "analytics_id")
            ):
                # Rows without a stored page carry no features.
                if digest is None or analytics_id in ("", "unknown"):
                    continue
                ids.setdefault(analytics_id, set()).add(ip)
        return ids


@dataclass(frozen=True)
class GaAccountStats:
    """§8.3's Google Analytics account/profile breakdown."""

    unique_ids: int
    unique_ips: int
    accounts: int
    profile_distribution: dict[int, float]   # #profiles -> % of accounts

    def single_profile_share(self) -> float:
        return self.profile_distribution.get(1, 0.0)


def analyze_ga_accounts(ids_to_ips: dict[str, set[int]]) -> GaAccountStats:
    """Split GA IDs into accounts and profiles (``UA-<acct>-<profile>``)."""
    accounts: dict[str, set[str]] = {}
    ips: set[int] = set()
    for ga_id, id_ips in ids_to_ips.items():
        match = GA_ID_RE.match(ga_id)
        if not match:
            continue
        account, profile = match.group(1), match.group(2)
        accounts.setdefault(account, set()).add(profile)
        ips |= id_ips
    profile_counts = Counter(len(profiles) for profiles in accounts.values())
    total_accounts = len(accounts) or 1
    return GaAccountStats(
        unique_ids=len(ids_to_ips),
        unique_ips=len(ips),
        accounts=len(accounts),
        profile_distribution={
            count: share / total_accounts * 100.0
            for count, share in sorted(profile_counts.items())
        },
    )
