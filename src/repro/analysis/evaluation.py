"""Scoring clustering output against simulator ground truth.

The paper validated its clustering by manual inspection of samples (§5);
the simulator lets us do better, since it knows which service owned every
IP on every day.  Two standard measures:

* **purity** — fraction of clustered ``<IP, round>`` pairs whose cluster's
  majority owner matches their own owner (over-merging lowers it);
* **fragmentation** — mean number of final clusters each observed service
  is split across (over-splitting raises it; 1.0 is perfect).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..cloudsim.simulation import DeploymentLog
from .clustering import ClusteringResult
from .dataset import Dataset

__all__ = ["ClusteringScore", "score_clustering"]


@dataclass(frozen=True)
class ClusteringScore:
    """Quality of one clustering against ground truth."""

    purity: float
    fragmentation: float
    clusters: int
    services_observed: int


def score_clustering(
    dataset: Dataset,
    clustering: ClusteringResult,
    log: DeploymentLog,
) -> ClusteringScore:
    """Score final clusters against the deployment log's ownership."""
    owners_per_cluster: dict[int, Counter] = {}
    clusters_per_service: dict[int, set[int]] = {}
    for cluster_id, cluster in clustering.clusters.items():
        counts: Counter = Counter()
        for ip, round_id in cluster.members:
            owner = log.owner_on(ip, dataset.timestamp_of(round_id))
            if owner is None:
                continue
            counts[owner] += 1
            clusters_per_service.setdefault(owner, set()).add(cluster_id)
        if counts:
            owners_per_cluster[cluster_id] = counts

    total = sum(sum(c.values()) for c in owners_per_cluster.values())
    majority = sum(max(c.values()) for c in owners_per_cluster.values())
    purity = majority / total if total else 0.0
    fragmentation = (
        sum(len(v) for v in clusters_per_service.values())
        / len(clusters_per_service)
        if clusters_per_service
        else 0.0
    )
    return ClusteringScore(
        purity=purity,
        fragmentation=fragmentation,
        clusters=len(clustering.clusters),
        services_observed=len(clusters_per_service),
    )
