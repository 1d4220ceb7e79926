"""The day-granularity IaaS cloud simulator.

:class:`CloudSimulation` advances one day at a time, maintaining the
ground-truth mapping of public IP → owning service.  Each day it

1. admits arriving services and executes departures (including the
   configured Friday/Saturday mass-departure events of Figure 8),
2. resizes every live service toward its elasticity target and applies
   per-service IP turnover (release + reacquire, so addresses recycle
   across tenants — the churn the paper measures),
3. evolves content: minor revisions (small simhash moves) and rare full
   redesigns (which legitimately move a service to a new cluster).

The simulator is fully deterministic given its seed.  Per-(ip, day)
transient effects — slow responders, flaky hosts, service downtime —
are derived from stable hashes so that queries are repeatable and
order-independent.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .instances import Deployment, IpPool
from .population import PopulationBuilder, WorkloadSpec
from .providers import ProviderTopology
from .services import ServiceSpec, target_size
from .software import WeightedChoice

__all__ = ["HostState", "DeploymentInterval", "DeploymentLog", "CloudSimulation"]


@dataclass
class DeploymentInterval:
    """A closed-open interval during which a service held an IP:
    days ``[start_day, end_day)``; ``end_day`` is None while open."""

    ip: int
    service_id: int
    kind: str
    start_day: int
    end_day: int | None = None

    def covers(self, day: int) -> bool:
        if day < self.start_day:
            return False
        return self.end_day is None or day < self.end_day


class DeploymentLog:
    """Complete history of IP ownership — the simulator's ground truth.

    Enables reconstructing who owned any IP on any day (which the
    blacklist simulators and the clustering-quality tests need) without
    storing per-day snapshots.
    """

    def __init__(self) -> None:
        self.intervals: list[DeploymentInterval] = []
        self._open_by_ip: dict[int, int] = {}
        self._by_service: dict[int, list[int]] = {}
        self._by_ip: dict[int, list[int]] = {}

    def on_acquire(self, ip: int, service_id: int, kind: str, day: int) -> None:
        index = len(self.intervals)
        self.intervals.append(DeploymentInterval(ip, service_id, kind, day))
        self._open_by_ip[ip] = index
        self._by_service.setdefault(service_id, []).append(index)
        self._by_ip.setdefault(ip, []).append(index)

    def on_release(self, ip: int, day: int) -> None:
        index = self._open_by_ip.pop(ip)
        self.intervals[index].end_day = day

    def intervals_for_service(self, service_id: int) -> list[DeploymentInterval]:
        return [self.intervals[i] for i in self._by_service.get(service_id, ())]

    def intervals_for_ip(self, ip: int) -> list[DeploymentInterval]:
        return [self.intervals[i] for i in self._by_ip.get(ip, ())]

    def owner_on(self, ip: int, day: int) -> int | None:
        for interval in self.intervals_for_ip(ip):
            if interval.covers(day):
                return interval.service_id
        return None


@dataclass(frozen=True)
class HostState:
    """Everything the network layer needs to answer probes for one IP."""

    ip: int
    service: ServiceSpec
    region: str
    kind: str
    since_day: int
    day: int

    @property
    def open_ports(self) -> frozenset[int]:
        return self.service.port_profile.open_ports

    @property
    def day_in_life(self) -> int:
        return self.service.day_in_life(self.day)


def _stable_hash(*parts: int | str) -> int:
    """Process-stable hash (unlike builtin ``hash``, which is salted by
    PYTHONHASHSEED and would break seed-reproducibility)."""
    data = ":".join(map(str, parts)).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class CloudSimulation:
    """Simulated cloud with ground-truth accessors.

    Parameters
    ----------
    topology:
        The provider's address layout.
    workload:
        Population knobs (see :class:`WorkloadSpec`).
    catalog, port_profiles:
        Software and port-profile distributions for the cloud.
    seed:
        Master seed; two simulations with equal arguments are identical.
    slow_host_rate / flaky_host_rate:
        Per-(ip, day) probability that a host answers slowly (misses the
        2 s probe timeout but answers within 8 s) or drops probes with
        50% probability.  Calibrated to the §4 timeout experiment
        (+0.61% responsive at 8 s; +0.27% with 4 retries).
    """

    def __init__(
        self,
        topology: ProviderTopology,
        workload: WorkloadSpec,
        catalog,
        port_profiles: WeightedChoice,
        seed: int = 0,
        *,
        slow_host_rate: float = 0.006,
        flaky_host_rate: float = 0.004,
    ):
        self.topology = topology
        self.workload = workload
        self.slow_host_rate = slow_host_rate
        self.flaky_host_rate = flaky_host_rate
        self._seed = seed
        self._rng = random.Random(seed)
        self.day = 0

        region_weights = [
            (spec.name, spec.weight) for spec in topology.spec.regions
        ]
        self.builder = PopulationBuilder(
            workload,
            catalog,
            port_profiles,
            region_weights,
            topology.spec.supports_vpc,
            random.Random(seed ^ 0xB111D),
        )
        self._pools: dict[str, IpPool] = {
            spec.name: IpPool(
                topology.addresses_by_kind(spec.name),
                random.Random(seed ^ _stable_hash(spec.name)),
            )
            for spec in topology.spec.regions
        }
        self.services: dict[int, ServiceSpec] = {}
        self._footprints: dict[int, list[Deployment]] = {}
        self._owner: dict[int, Deployment] = {}
        self._domain_index: dict[str, int] = {}
        self.log = DeploymentLog()

        target_ips = int(topology.space.size * workload.occupancy)
        initial = self.builder.build_initial(target_ips)
        for service in initial:
            self._register(service)
        self._initial_count = len(initial)
        self._sync_all_footprints()

    # ------------------------------------------------------------------
    # time

    def step(self) -> None:
        """Advance the simulation by one day."""
        self.day += 1
        day = self.day
        rng = self._rng
        spec = self.workload

        for _ in range(self.builder.arrivals_for_day(self._initial_count, rng)):
            self._register(self.builder.make_arrival(day))

        event_fraction = spec.departure_events.get(day, 0.0)
        if event_fraction > 0.0:
            self._mass_departure(event_fraction)

        for service in self.services.values():
            if service.death_day is None and service.birth_day < day:
                if service.base_size > 20:
                    continue  # large deployments persist (Table 15)
                if rng.random() < spec.departure_rate:
                    service.death_day = day

        self._sync_all_footprints()
        self._evolve_content()

    def advance_to(self, day: int) -> None:
        """Step forward until ``self.day == day``."""
        if day < self.day:
            raise ValueError(f"cannot rewind from day {self.day} to {day}")
        while self.day < day:
            self.step()

    # ------------------------------------------------------------------
    # ground truth accessors

    def host_state(self, ip: int, day: int | None = None) -> HostState | None:
        """The live deployment on *ip* today, or None if idle."""
        deployment = self._owner.get(ip)
        if deployment is None:
            return None
        service = self.services[deployment.service_id]
        return HostState(
            ip=ip,
            service=service,
            region=self.topology.region_of(ip),
            kind=deployment.kind,
            since_day=deployment.since_day,
            day=self.day if day is None else day,
        )

    def owner_of(self, ip: int) -> int | None:
        deployment = self._owner.get(ip)
        return deployment.service_id if deployment else None

    def footprint(self, service_id: int) -> list[int]:
        """IPs currently held by a service."""
        return [d.ip for d in self._footprints.get(service_id, ())]

    def assignments(self) -> dict[int, int]:
        """Snapshot of ip -> service_id for the current day."""
        return {ip: d.service_id for ip, d in self._owner.items()}

    def live_services(self) -> list[ServiceSpec]:
        return [s for s in self.services.values() if s.alive_on(self.day)]

    def service_for_domain(self, domain: str) -> ServiceSpec | None:
        """The tenant service owning a registered domain, if any."""
        service_id = self._domain_index.get(domain)
        return self.services.get(service_id) if service_id else None

    def occupied_count(self) -> int:
        return len(self._owner)

    # ------------------------------------------------------------------
    # per-(ip, day) transient behaviour (stable, order-independent)

    def probe_latency(self, ip: int, day: int) -> float:
        """Seconds before the host completes the TCP handshake.

        Whether a host is a *slow responder* (answers between 2 s and
        8 s, so it misses the default probe timeout) is a stable per-IP
        property — re-probing the same host across rounds agrees, so
        slow hosts do not masquerade as responsiveness churn.
        """
        roll = _stable_hash(self._seed, ip, 1) / 2**64
        if roll < self.slow_host_rate:
            return 2.0 + 6.0 * (_stable_hash(self._seed, ip, 2) / 2**64)
        return 0.05 + 0.8 * (_stable_hash(self._seed, ip, day, 3) / 2**64)

    def is_flaky(self, ip: int, day: int) -> bool:
        """Flakiness is likewise a stable per-IP property; individual
        probe drops vary per attempt (see :meth:`flaky_drop`)."""
        del day
        roll = _stable_hash(self._seed, ip, 4) / 2**64
        return roll < self.flaky_host_rate

    def flaky_drop(self, ip: int, day: int, attempt: int) -> bool:
        """Whether a flaky host drops this particular probe attempt."""
        roll = _stable_hash(self._seed, ip, day, 5, attempt) / 2**64
        return roll < 0.5

    def service_web_up(self, service: ServiceSpec, ip: int, day: int) -> bool:
        """Whether this instance answers HTTP on *day*.

        Downtime is drawn per (IP, day) with the service's availability,
        so a large deployment's dips hit individual instances (crashed
        or restarting VMs) rather than blacking out the whole cluster.
        """
        roll = _stable_hash(self._seed, service.service_id, ip, day, 6) / 2**64
        return roll < service.availability

    # ------------------------------------------------------------------
    # internals

    def _register(self, service: ServiceSpec) -> None:
        self.services[service.service_id] = service
        self._footprints[service.service_id] = []
        if service.profile is not None and service.profile.domain:
            self._domain_index[service.profile.domain] = service.service_id

    def _mass_departure(self, fraction: float) -> None:
        """A Friday/Saturday event: a batch of services leaves for good."""
        candidates = [
            s for s in self.services.values()
            if s.alive_on(self.day) and s.base_size <= 20
        ]
        count = int(len(candidates) * fraction)
        for service in self._rng.sample(candidates, min(count, len(candidates))):
            service.death_day = self.day

    def _sync_all_footprints(self) -> None:
        day = self.day
        # Releases first so departing tenants' IPs are reusable same-day.
        for service in self.services.values():
            deployments = self._footprints[service.service_id]
            target = target_size(service, day, self._rng)
            if len(deployments) > target:
                self._release_some(service, len(deployments) - target)
        for service in self.services.values():
            deployments = self._footprints[service.service_id]
            target = target_size(service, day, self._rng)
            if len(deployments) < target:
                self._acquire_some(service, target - len(deployments))
            self._apply_turnover(service)

    def _pool_for(self, service: ServiceSpec) -> tuple[str, IpPool]:
        region = self._rng.choice(service.regions)
        return region, self._pools[region]

    def _acquire_kind(self, service: ServiceSpec) -> str:
        if service.networking == "mixed":
            return "vpc" if self._rng.random() < 0.5 else "classic"
        return service.networking

    def _acquire_some(self, service: ServiceSpec, count: int) -> None:
        deployments = self._footprints[service.service_id]
        for _ in range(count):
            _, pool = self._pool_for(service)
            address = pool.acquire(self._acquire_kind(service))
            if address is None:
                continue  # region exhausted; tenant simply gets fewer IPs
            deployment = Deployment(
                service_id=service.service_id,
                ip=address,
                kind=pool.kind_of(address),
                since_day=self.day,
            )
            deployments.append(deployment)
            self._owner[address] = deployment
            self.log.on_acquire(address, service.service_id, deployment.kind, self.day)

    def _release_some(self, service: ServiceSpec, count: int) -> None:
        deployments = self._footprints[service.service_id]
        for _ in range(min(count, len(deployments))):
            index = self._rng.randrange(len(deployments))
            deployments[index], deployments[-1] = deployments[-1], deployments[index]
            deployment = deployments.pop()
            self._release_deployment(deployment)

    def _release_deployment(self, deployment: Deployment) -> None:
        del self._owner[deployment.ip]
        self._region_pool(deployment.ip).release(deployment.ip)
        self.log.on_release(deployment.ip, self.day)

    def _region_pool(self, ip: int) -> IpPool:
        return self._pools[self.topology.region_of(ip)]

    def _apply_turnover(self, service: ServiceSpec) -> None:
        if service.ip_turnover <= 0.0:
            return
        deployments = self._footprints[service.service_id]
        if not deployments:
            return
        swaps = 0
        for deployment in list(deployments):
            if self._rng.random() < service.ip_turnover:
                swaps += 1
                deployments.remove(deployment)
                self._release_deployment(deployment)
        if swaps:
            self._acquire_some(service, swaps)

    def _evolve_content(self) -> None:
        for service in self.services.values():
            if not service.alive_on(self.day) or service.profile is None:
                continue
            if service.redesign_rate and self._rng.random() < service.redesign_rate:
                service.major_version += 1
                service.revision = 0
            elif service.revision_rate and self._rng.random() < service.revision_rate:
                service.revision += 1
