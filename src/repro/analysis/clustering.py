"""The WhoWas 2-level webpage clustering heuristic (§5).

Associates ``<IP, round>`` page observations that are likely the same
web application:

1. **First level** — exact grouping on five features: title, template,
   server, keywords, Google Analytics ID.
2. **Second level** — within each first-level cluster, single-linkage
   clustering of the 96-bit simhashes under a Hamming-distance threshold
   tuned with the gap statistic.
3. **Merge heuristic** — two clusters merge when the same IP carries, at
   successive times, records whose simhashes differ by at most 3 bits
   and that share at least one of the five features (catching ordinary
   page edits that would otherwise split a site across clusters).
4. **Cleaning** — clusters whose titles indicate fetch failures ("not
   found", "error", …) are removed, as are large clusters (> 20 IPs per
   day on average) of default server test pages.

The paper applied step 4 semi-manually; we encode its two published
rules as predicates.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core import telemetry as _telemetry
from ..core.records import UNKNOWN, PageFeatures
from ..core.simhash import hamming_distance, hamming_rows, pack_hashes
from .components import DisjointSets
from .dataset import Dataset, Observation
from .gap_statistic import cluster_by_threshold, select_threshold
from .lsh import DEFAULT_EXACT_CUTOFF

__all__ = ["Cluster", "ClusterStats", "ClusteringResult", "WebpageClusterer"]


@contextmanager
def _timed(histogram, phase: str):
    """Observe a block's wall-clock into a phase-labelled histogram."""
    begun = time.perf_counter()
    try:
        yield
    finally:
        histogram.labels(phase=phase).observe(time.perf_counter() - begun)

#: Titles indicating WhoWas failed to fetch useful content (§5).
_ERROR_TITLE_RE = re.compile(
    r"not\s*found|error|forbidden|bad\s*gateway|unavailable|"
    r"under\s*construction|maintenance",
    re.IGNORECASE,
)

#: Titles of default server test pages (§5's "welcome-apache" rule).
_DEFAULT_TITLE_RE = re.compile(
    r"welcome to nginx|apache.*default|default.*page|test page|"
    r"placeholder|^iis\d*$|it works",
    re.IGNORECASE,
)


@dataclass
class Cluster:
    """A final cluster: a set of ``<IP, round>`` members."""

    cluster_id: int
    level1_key: tuple[str, str, str, str, str]
    members: set[tuple[int, int]] = field(default_factory=set)

    @property
    def title(self) -> str:
        return self.level1_key[0]

    def ips(self) -> set[int]:
        return {ip for ip, _ in self.members}

    def rounds(self) -> set[int]:
        return {round_id for _, round_id in self.members}

    def ips_in_round(self, round_id: int) -> set[int]:
        return {ip for ip, rid in self.members if rid == round_id}

    def size_by_round(self, round_ids: list[int]) -> list[int]:
        counts = {rid: 0 for rid in round_ids}
        for _, rid in self.members:
            if rid in counts:
                counts[rid] += 1
        return [counts[rid] for rid in round_ids]

    def average_size(self, round_count: int) -> float:
        """Average number of IPs per round over the whole campaign."""
        if round_count == 0:
            return 0.0
        return len(self.members) / round_count


@dataclass(frozen=True)
class ClusterStats:
    """The clustering funnel of Table 6."""

    responsive_ips: int
    unique_simhashes: int
    top_level_clusters: int
    second_level_clusters: int
    merged_clusters: int
    final_clusters: int


class ClusteringResult:
    """Outcome of clustering one campaign's dataset."""

    def __init__(
        self,
        clusters: dict[int, Cluster],
        removed: dict[int, Cluster],
        assignment: dict[tuple[int, int], int],
        stats: ClusterStats,
        threshold: int,
    ):
        #: Final clusters (after merging and cleaning), by id.
        self.clusters = clusters
        #: Clusters dropped by the cleaning rules, by id.
        self.removed = removed
        self._assignment = assignment
        self.stats = stats
        #: The gap-statistic-selected Hamming threshold actually used.
        self.threshold = threshold

    def cluster_of(self, ip: int, round_id: int) -> int | None:
        """Final cluster id of an ``<IP, round>`` pair (None if the pair
        had no page content or its cluster was cleaned away)."""
        cluster_id = self._assignment.get((ip, round_id))
        if cluster_id is None or cluster_id not in self.clusters:
            return None
        return cluster_id

    def sizes(self, round_count: int) -> dict[int, float]:
        """Average cluster size per cluster id."""
        return {
            cid: cluster.average_size(round_count)
            for cid, cluster in self.clusters.items()
        }


class WebpageClusterer:
    """Runs the full §5 pipeline over a :class:`Dataset`."""

    #: Order of the five §5 features in a level-1 key.
    FEATURE_NAMES = ("title", "template", "server", "keywords",
                     "analytics_id")

    def __init__(
        self,
        *,
        level2_threshold: int | None = None,
        merge_threshold: int = 3,
        clean_min_daily_ips: float = 20.0,
        use_features: bool = True,
        use_merge: bool = True,
        feature_subset: tuple[str, ...] | None = None,
        exact: bool | None = None,
        exact_cutoff: int = DEFAULT_EXACT_CUTOFF,
    ):
        self.level2_threshold = level2_threshold
        self.merge_threshold = merge_threshold
        self.clean_min_daily_ips = clean_min_daily_ips
        #: Second-level candidate generation: ``True`` forces the
        #: brute-force all-pairs scan, ``False`` forces the banded LSH
        #: index (:mod:`repro.analysis.lsh`), ``None`` picks the index
        #: automatically above *exact_cutoff* distinct fingerprints.
        #: Both paths produce identical partitions — the index has exact
        #: recall at the clustering threshold.
        self.exact = exact
        self.exact_cutoff = exact_cutoff
        #: Ablation switch: False clusters on simhash alone (the authors'
        #: starting point before adding top-level features).
        self.use_features = use_features
        #: Ablation switch: False skips the post-clustering merge.
        self.use_merge = use_merge
        #: §5 notes the interface makes it easy to cluster "with other
        #: goals in mind, such as simply finding related content
        #: (dropping the server feature) or only using Analytics IDs" —
        #: pass the features to keep, e.g. ("analytics_id",).
        if feature_subset is not None:
            unknown_names = set(feature_subset) - set(self.FEATURE_NAMES)
            if unknown_names:
                raise ValueError(
                    f"unknown features: {sorted(unknown_names)}; "
                    f"choose from {self.FEATURE_NAMES}"
                )
        self.feature_subset = feature_subset

    def _level1_key(self, features: PageFeatures) -> tuple:
        full = features.level1_key()
        if self.feature_subset is None:
            return full
        by_name = dict(zip(self.FEATURE_NAMES, full))
        return tuple(
            by_name[name] if name in self.feature_subset else "*"
            for name in self.FEATURE_NAMES
        )

    # ------------------------------------------------------------------

    def cluster(self, dataset: Dataset) -> ClusteringResult:
        tel = _telemetry.get()
        phase_seconds = tel.histogram(
            "repro_clustering_phase_seconds",
            "Wall-clock per clustering phase",
            labels=("phase",),
        )
        with tel.span("cluster:level1"), _timed(phase_seconds, "level1"):
            pages = [o for o in dataset.observations() if o.has_page]
            level1: dict[tuple, list[Observation]] = {}
            for obs in pages:
                features = obs.features
                assert features is not None
                key = self._level1_key(features) if self.use_features \
                    else ("*",) * 5
                level1.setdefault(key, []).append(obs)

        all_hashes = [o.features.simhash for o in pages]  # type: ignore[union-attr]
        threshold = self.level2_threshold
        if threshold is None:
            with tel.span("cluster:threshold"), \
                    _timed(phase_seconds, "threshold"):
                threshold = select_threshold(all_hashes)

        # Second level: cluster distinct simhashes within each L1 group.
        assignment: dict[tuple[int, int], int] = {}
        cluster_key: dict[int, tuple] = {}
        next_id = 0
        with tel.span("cluster:level2"), _timed(phase_seconds, "level2"):
            for key, group in level1.items():
                distinct = sorted({o.features.simhash for o in group})  # type: ignore[union-attr]
                hash_to_cluster: dict[int, int] = {}
                for members in cluster_by_threshold(
                    distinct, threshold,
                    exact=self.exact, exact_cutoff=self.exact_cutoff,
                ):
                    for value in members:
                        hash_to_cluster[value] = next_id
                    cluster_key[next_id] = key
                    next_id += 1
                for obs in group:
                    assignment[obs.key()] = hash_to_cluster[obs.features.simhash]  # type: ignore[union-attr]
        second_level_count = next_id

        # Merge heuristic over per-IP temporal neighbours.
        merged = DisjointSets(next_id)
        if self.use_merge:
            with tel.span("cluster:merge"), _timed(phase_seconds, "merge"):
                candidates: list[tuple[Observation, Observation]] = []
                for history in dataset.by_ip.values():
                    previous: Observation | None = None
                    for obs in history:
                        if not obs.has_page:
                            continue
                        if previous is not None:
                            candidates.append((previous, obs))
                        previous = obs
                for (earlier, later), distance in zip(
                    candidates, self._merge_distances(candidates)
                ):
                    if self._should_merge(earlier, later, assignment,
                                          distance=distance):
                        merged.union(assignment[earlier.key()],
                                     assignment[later.key()])

        # Relabel to merged roots.
        merged_assignment = {
            key: merged.find(cid) for key, cid in assignment.items()
        }
        merged_ids = set(merged_assignment.values())

        clusters: dict[int, Cluster] = {}
        for key, cid in merged_assignment.items():
            cluster = clusters.get(cid)
            if cluster is None:
                cluster = Cluster(cid, cluster_key[cid])
                clusters[cid] = cluster
            cluster.members.add(key)

        with tel.span("cluster:clean"), _timed(phase_seconds, "clean"):
            removed = self._clean(clusters, dataset.round_count)

        stats = ClusterStats(
            responsive_ips=len(dataset.by_ip),
            unique_simhashes=len(set(all_hashes)),
            top_level_clusters=len(level1),
            second_level_clusters=second_level_count,
            merged_clusters=len(merged_ids),
            final_clusters=len(clusters),
        )
        return ClusteringResult(clusters, removed, merged_assignment, stats,
                                threshold)

    # ------------------------------------------------------------------

    def _merge_distances(
        self, candidates: list[tuple[Observation, Observation]]
    ) -> list[int]:
        """Simhash Hamming distance per successive-observation pair,
        batch-computed with the packed popcount kernel once there are
        enough to repay packing (bit-for-bit equal to the scalar loop)."""
        if len(candidates) >= 64:
            earlier = pack_hashes(
                [a.features.simhash for a, _ in candidates]  # type: ignore[union-attr]
            )
            later = pack_hashes(
                [b.features.simhash for _, b in candidates]  # type: ignore[union-attr]
            )
            return hamming_rows(earlier, later).tolist()
        return [
            hamming_distance(a.features.simhash, b.features.simhash)  # type: ignore[union-attr]
            for a, b in candidates
        ]

    def _should_merge(self, earlier: Observation, later: Observation,
                      assignment: dict[tuple[int, int], int],
                      *, distance: int | None = None) -> bool:
        """§5's merge conditions for two same-IP records at successive
        times.  All three must hold:

        1. the records sit in *distinct* second-level clusters (raw
           pre-merge assignment ids — earlier unions never change this
           test, so merge decisions are order-independent);
        2. their simhashes are within :attr:`merge_threshold` bits,
           **inclusive**: distance == ``merge_threshold`` (the paper's 3)
           merges, ``merge_threshold + 1`` does not;
        3. at least one of the five §5 features is equal on both sides
           *and* known — ``UNKNOWN`` (empty/missing) values never count
           as shared, so two featureless pages do not merge.

        *distance* optionally injects a precomputed Hamming distance
        (the vectorized batch path); it must equal
        ``hamming_distance(earlier.simhash, later.simhash)``.
        """
        if assignment[earlier.key()] == assignment[later.key()]:
            return False
        features_a = earlier.features
        features_b = later.features
        assert features_a is not None and features_b is not None
        if distance is None:
            distance = hamming_distance(features_a.simhash,
                                        features_b.simhash)
        if distance > self.merge_threshold:
            return False
        return any(
            a == b and a != UNKNOWN
            for a, b in zip(features_a.level1_key(), features_b.level1_key())
        )

    def _clean(self, clusters: dict[int, Cluster],
               round_count: int) -> dict[int, Cluster]:
        """Apply the two §5 cleaning rules; returns the removed clusters."""
        removed: dict[int, Cluster] = {}
        for cid in list(clusters):
            cluster = clusters[cid]
            title = cluster.title
            if title != UNKNOWN and _ERROR_TITLE_RE.search(title):
                removed[cid] = clusters.pop(cid)
                continue
            if (
                cluster.average_size(round_count) > self.clean_min_daily_ips
                and title != UNKNOWN
                and _DEFAULT_TITLE_RE.search(title)
            ):
                removed[cid] = clusters.pop(cid)
        return removed
