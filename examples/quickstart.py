"""Quickstart: measure a simulated cloud and look up an IP's history.

Builds a small EC2-like cloud, runs WhoWas for a handful of rounds, and
exercises the platform's core promise — "give me the history of status
and content for this IP address over time".

Run:  python examples/quickstart.py
"""

from repro.cloudsim.addressing import int_to_ip
from repro.workloads import Campaign, ec2_scenario


def main() -> None:
    # A scaled-down EC2: 2,048 public IPs across 8 regions, 24% occupied.
    scenario = ec2_scenario(total_ips=2048, seed=42, duration_days=21)
    print(f"cloud: {scenario.name}, {len(scenario.targets)} advertised IPs, "
          f"{scenario.simulation.occupied_count()} in use")

    # Scan on days 0, 3, 6, ... 18 (the paper scanned daily or each 3 days).
    campaign = Campaign(scenario)
    result = campaign.run(scan_days=list(range(0, 21, 3)), progress=True)

    # The WhoWas lookup: per-IP history of status and content.
    dataset = result.dataset
    ip = next(
        ip for ip, history in dataset.by_ip.items()
        if len(history) >= 5 and any(o.has_page for o in history)
    )
    print(f"\nhistory of {int_to_ip(ip)}:")
    for record in result.store.history(ip):
        features = record.features
        title = features.title if features else "-"
        print(
            f"  day {record.timestamp:2d}: "
            f"ports={sorted(record.probe.open_ports)} "
            f"code={record.fetch.status_code} title={title!r}"
        )

    # Cluster the observations: which IPs host the same web application?
    clustering = result.clustering()
    stats = clustering.stats
    print(
        f"\nclustering: {stats.responsive_ips} responsive IPs -> "
        f"{stats.top_level_clusters} top-level / "
        f"{stats.second_level_clusters} second-level / "
        f"{stats.final_clusters} final clusters "
        f"(simhash threshold {clustering.threshold})"
    )
    cluster_id = clustering.cluster_of(ip, dataset.round_ids[-1])
    if cluster_id is not None:
        cluster = clustering.clusters[cluster_id]
        peers = sorted(cluster.ips() - {ip})[:5]
        print(f"{int_to_ip(ip)} clusters with "
              f"{[int_to_ip(p) for p in peers]}")


if __name__ == "__main__":
    main()
