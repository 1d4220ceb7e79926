"""Fuzz the full pipeline with randomized workloads (hypothesis).

Micro-campaigns over randomly drawn cloud parameters must never crash,
and their outputs must satisfy the pipeline's structural invariants —
no matter how odd the workload (tiny spaces, extreme occupancy, pure
weekend massacres, heavy malicious mixes).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import DynamicsAnalyzer, WebpageClusterer
from repro.cloudsim.population import WorkloadSpec
from repro.cloudsim.providers import EC2_SPEC
from repro.cloudsim.services import PORT_PROFILES_EC2
from repro.cloudsim.simulation import CloudSimulation
from repro.cloudsim.network import SimulatedTransport
from repro.cloudsim.software import EC2_CATALOG
from repro.core.platform import WhoWas
from repro.core.store import MeasurementStore
from repro.workloads import simulation_config


@st.composite
def workloads(draw):
    return WorkloadSpec(
        cloud="EC2",
        occupancy=draw(st.floats(0.05, 0.6)),
        duration_days=draw(st.integers(4, 14)),
        ephemeral_fraction=draw(st.floats(0.0, 0.4)),
        arrival_rate=draw(st.floats(0.0, 0.02)),
        departure_events={
            draw(st.integers(1, 10)): draw(st.floats(0.0, 0.5))
        } if draw(st.booleans()) else {},
        malicious_embedders=draw(st.integers(0, 5)),
        malicious_hosters=draw(st.integers(0, 5)),
    )


class TestPipelineFuzz:
    @settings(max_examples=8, deadline=None)
    @given(
        workload=workloads(),
        total_ips=st.integers(128, 768),
        seed=st.integers(0, 2**16),
    )
    def test_campaign_invariants(self, workload, total_ips, seed):
        topology = EC2_SPEC.build(total_ips, seed=seed)
        simulation = CloudSimulation(
            topology, workload, EC2_CATALOG, PORT_PROFILES_EC2, seed=seed
        )
        transport = SimulatedTransport(simulation)
        platform = WhoWas(transport, MeasurementStore(), simulation_config())
        targets = list(topology.space.addresses())

        scan_days = list(range(0, workload.duration_days, 3))
        for day in scan_days:
            simulation.advance_to(day)
            summary = platform.run_round(targets, timestamp=day)
            # Structural invariants per round:
            assert 0 <= summary.available <= summary.responsive
            assert summary.responsive <= len(targets)
            # Observed hosts are a subset of truly-live hosts.
            observed = platform.store.responsive_ips(summary.round_id)
            assert observed <= set(simulation.assignments())

        from repro.analysis import Dataset

        dataset = Dataset.from_store(platform.store)
        assert dataset.round_count == len(scan_days)
        clustering = WebpageClusterer().cluster(dataset)
        stats = clustering.stats
        assert stats.final_clusters <= stats.second_level_clusters
        assert stats.second_level_clusters >= stats.top_level_clusters
        # Every clustered pair refers to a real observation.
        for cluster in clustering.clusters.values():
            for ip, rid in cluster.members:
                assert any(
                    o.ip == ip for o in dataset.by_round[rid]
                )
        if dataset.round_count >= 2:
            rates = DynamicsAnalyzer(dataset, clustering).churn_rates()
            assert 0.0 <= rates.overall <= 100.0
            assert 0.0 <= rates.cluster <= rates.overall + 1e-9
