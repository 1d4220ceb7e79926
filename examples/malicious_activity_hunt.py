"""Malicious-activity hunt — the §8.2 workflow, end to end.

Joins a campaign's data with the two blacklist services:

1. every URL extracted from fetched pages is checked against Safe
   Browsing, revealing pages that link to phishing/malware and linchpin
   IPs aggregating many malicious URLs;
2. every responsive IP is checked against VirusTotal (≥ 2-engine
   consensus), then WhoWas classifies each detected IP's content
   behaviour, measures blacklist lag, and *spreads* labels through
   clusters to find additional malicious IPs.

Run:  python examples/malicious_activity_hunt.py
"""

from collections import Counter

from repro.analysis import SafeBrowsingAnalyzer, VirusTotalAnalyzer
from repro.cloudsim.addressing import int_to_ip
from repro.workloads import Campaign, ec2_scenario


def main() -> None:
    scenario = ec2_scenario(
        total_ips=4096, seed=17,
        malicious_embedders=20, malicious_hosters=40, linchpin_services=1,
    )
    print(f"running {len(scenario.scan_days)} rounds ...")
    result = Campaign(scenario).run()
    clustering = result.clustering()

    # --- Safe Browsing: pages linking to listed URLs ---
    analyzer = SafeBrowsingAnalyzer(
        result.dataset, scenario.safe_browsing(seed=1), clustering
    )
    findings = analyzer.scan()
    print("\n== Safe Browsing (paper: 196 EC2 IPs, 1,393 URLs) ==")
    print(f"  malicious IPs: {len(findings.malicious_ips)}  "
          f"distinct URLs: {findings.distinct_urls}  "
          f"clusters: {len(findings.clusters)}")
    print(f"  phishing pages: {findings.phishing_pages}  "
          f"malware pages: {findings.malware_pages}")
    lifetimes = findings.lifetimes()
    over7 = sum(1 for v in lifetimes if v > 7) / max(1, len(lifetimes))
    print(f"  {over7 * 100:.0f}% stay malicious > 7 days (paper: 62%)")
    for linchpin in findings.linchpins():
        print(f"  linchpin {int_to_ip(linchpin.ip)} aggregates "
              f"{len(linchpin.urls)} malicious URLs (cf. the 128-URL "
              "Blackhole page)")

    # --- VirusTotal: per-IP reports, behaviours, lag ---
    vt_analyzer = VirusTotalAnalyzer(
        result.dataset, scenario.virustotal(seed=2), clustering,
        region_of=scenario.topology.region_of,
    )
    vt = vt_analyzer.analyze()
    print("\n== VirusTotal (paper: 2,070 EC2 IPs, 0.3% of available) ==")
    print(f"  malicious IPs (>= 2 engines): {vt.malicious_ip_count}")
    by_region = Counter()
    for (region, _), count in vt.by_region_month.items():
        by_region[region] += count
    print("  by region:", dict(by_region.most_common(4)))
    print("  top malicious-URL domains (paper Table 18):")
    for domain, count in vt.top_domains(5):
        print(f"    {domain:<32} {count}")
    behaviour_counts = Counter(vt.behaviour_types.values())
    print(f"  content behaviours: type1={behaviour_counts[1]} "
          f"type2={behaviour_counts[2]} type3={behaviour_counts[3]} "
          "(paper: 34/42/22)")
    spread_total = sum(len(v) for v in vt.spread_labels.values())
    print(f"  label spreading via clusters found {spread_total} extra IPs "
          "(paper: +191)")


if __name__ == "__main__":
    main()
