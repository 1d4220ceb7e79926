"""Recovering virtual-host ownership with active DNS (§9 extension).

WhoWas visits websites by bare IP, so shared-hosting / virtual-host
setups answer 404 or a placeholder page (§4's second limitation).  But
those pages often leak the intended site's domain — and an active DNS
lookup that resolves the domain back onto the same IP confirms
ownership.  This example runs that pipeline against a simulated cloud
and shows how many otherwise-unlabelable IPs it recovers.

Run:  python examples/vhost_recovery.py
"""

from repro.analysis import DomainCorrelator
from repro.cloudsim.addressing import int_to_ip
from repro.workloads import Campaign, ec2_scenario


def main() -> None:
    scenario = ec2_scenario(total_ips=2048, seed=19, duration_days=30)
    print("running campaign ...")
    result = Campaign(scenario).run(scan_days=list(range(0, 30, 3)))
    clustering = result.clustering()

    correlator = DomainCorrelator(
        result.dataset, scenario.dns.resolve_domain, clustering
    )
    report = correlator.correlate()

    print(f"\ncandidate domains found in page bodies: {report.candidates}")
    print(f"resolved by active DNS interrogation:   {report.resolved}")
    confirmed = report.confirmed()
    print(f"ownership confirmed (resolved back):    {len(confirmed)}")
    recovered = report.recovered_error_ips()
    print(f"error-page IPs with recovered owners:   {len(recovered)}")

    print("\nsample confirmations:")
    shown = 0
    for correlation in confirmed:
        if not correlation.recovered_error_ips:
            continue
        ips = ", ".join(int_to_ip(ip) for ip in correlation.recovered_error_ips)
        print(f"  {correlation.domain:<28} -> {ips}")
        shown += 1
        if shown >= 5:
            break
    if shown == 0:
        for correlation in confirmed[:5]:
            ips = ", ".join(int_to_ip(ip) for ip in correlation.confirmed_ips)
            print(f"  {correlation.domain:<28} -> {ips}")


if __name__ == "__main__":
    main()
