"""Campaign driver: run WhoWas against a scenario on its scan calendar.

Replays §6's methodology — advance the simulated cloud day by day,
running one complete WhoWas round (probe → fetch → features → store) on
each scheduled scan day — and hands back everything the analyses need.

Campaign progress is persisted in the store's ``campaign_meta`` table
(scenario name, RNG seed, scan calendar, completed days), and each
round checkpoints shard by shard, so a campaign killed mid-round is
resumable: :meth:`Campaign.resume` (or ``repro resume <db>``) rebuilds
the scenario, skips the days already recorded, finishes any partial
round the crash left ``in_progress``, and continues the calendar.  The
simulated cloud is a pure function of its seed and the day reached, so
a resumed campaign produces record-for-record the same database an
uninterrupted run would have.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from ..analysis.clustering import ClusteringResult, WebpageClusterer
from ..analysis.dataset import Dataset
from ..core.config import FetchConfig, PlatformConfig, ScanConfig
from ..core.faults import FaultyTransport, chaos_plan, hostile_plan
from ..core.platform import RoundInterrupted, RoundSummary, WhoWas
from ..core.store import MeasurementStore
from .scenario import Scenario, azure_scenario, ec2_scenario

__all__ = [
    "simulation_config",
    "build_sim_scenario",
    "SimTransportFactory",
    "CampaignResult",
    "CampaignInterrupted",
    "Campaign",
]


def build_sim_scenario(params: dict) -> Scenario:
    """Assemble the (possibly chaos-wrapped) scenario a parameter dict
    describes — shared by ``repro simulate``, ``repro resume``, and
    every spawned partition worker, so all of them see the
    byte-identical cloud."""
    builder = ec2_scenario if params["cloud"] == "ec2" else azure_scenario
    kwargs = {"total_ips": params["ips"], "seed": params["seed"]}
    if params.get("days") is not None:
        kwargs["duration_days"] = params["days"]
    scenario = builder(**kwargs)
    chaos_rate = params.get("chaos_rate", 0.0)
    if chaos_rate > 0:
        seed = params.get("chaos_seed", 0)
        plan = chaos_plan(seed, rate=chaos_rate)
        if params.get("chaos_hostile"):
            plan = hostile_plan(seed, rate=chaos_rate)
        scenario.transport = FaultyTransport(scenario.transport, plan)
    return scenario


@dataclass(frozen=True)
class SimTransportFactory:
    """Picklable ``factory(timestamp) -> Transport`` over the simulated
    cloud: a spawned partition worker calls it to rebuild the scenario
    from parameters alone and advance it to the round's day.  The
    simulator is a pure function of ``(seed, day)``, so the worker's
    transport answers byte-for-byte like the coordinator's."""

    params: dict

    def __call__(self, timestamp: int):
        scenario = build_sim_scenario(dict(self.params))
        scenario.simulation.advance_to(timestamp)
        return scenario.transport


class CampaignInterrupted(Exception):
    """A campaign stopped cooperatively; everything up to (and the
    committed shards of) *day* is checkpointed in the store."""

    def __init__(self, scenario_name: str, day: int, round_id: int):
        self.scenario_name = scenario_name
        self.day = day
        self.round_id = round_id
        super().__init__(
            f"campaign {scenario_name!r} interrupted; resumable at day {day}"
        )


def simulation_config(blacklist: frozenset[int] = frozenset()) -> PlatformConfig:
    """Platform config tuned for simulator speed: the polite-rate token
    bucket is pointless against an in-process simulator, so the rate is
    effectively unlimited; probe semantics (timeouts, no retries) keep
    the paper's defaults."""
    return PlatformConfig(
        scan=ScanConfig(probes_per_second=1e12, concurrency=2048),
        fetch=FetchConfig(workers=2048),
        blacklist=blacklist,
        grab_ssh_banners=True,
    )


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    scenario: Scenario
    store: MeasurementStore
    summaries: list[RoundSummary]
    _dataset: Dataset | None = field(default=None, repr=False)
    _clustering: ClusteringResult | None = field(default=None, repr=False)

    @property
    def dataset(self) -> Dataset:
        """The in-memory dataset (loaded lazily, cached)."""
        if self._dataset is None:
            self._dataset = Dataset.from_store(self.store)
        return self._dataset

    def clustering(self, **kwargs) -> ClusteringResult:
        """Run (or reuse) the §5 clustering over the campaign."""
        if kwargs:
            return WebpageClusterer(**kwargs).cluster(self.dataset)
        if self._clustering is None:
            self._clustering = WebpageClusterer().cluster(self.dataset)
        return self._clustering


class Campaign:
    """Runs a full measurement campaign over one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        store: MeasurementStore | None = None,
        config: PlatformConfig | None = None,
        *,
        transport_factory=None,
        proc_chaos=None,
    ):
        self.scenario = scenario
        self.store = store or MeasurementStore()
        self.platform = WhoWas(
            scenario.transport, self.store, config or simulation_config(),
            transport_factory=transport_factory, proc_chaos=proc_chaos,
        )

    # ------------------------------------------------------------------
    # progress metadata

    def _completed_days(self) -> list[int]:
        raw = self.store.get_meta("completed_days")
        return json.loads(raw) if raw else []

    def _write_progress(self, days: list[int], completed: list[int]) -> None:
        self.store.set_meta("scenario", self.scenario.name)
        self.store.set_meta("seed", str(self.scenario.seed))
        self.store.set_meta("scan_days", json.dumps(days))
        self.store.set_meta("completed_days", json.dumps(completed))

    # ------------------------------------------------------------------

    def run(self, scan_days: list[int] | None = None,
            progress: bool = False,
            abort_event: asyncio.Event | None = None) -> CampaignResult:
        """Advance the cloud through its calendar, scanning on schedule.

        Days already recorded as completed in ``campaign_meta`` are
        skipped and a partial round left by a previous crash or abort
        is finished shard by shard, so calling :meth:`run` on a
        half-finished store *is* the resume path.  When *abort_event*
        is set, the current shard checkpoints and the campaign raises
        :class:`CampaignInterrupted` with the resumable day.
        """
        scenario = self.scenario
        days = scan_days if scan_days is not None else scenario.scan_days
        targets = scenario.targets
        completed = self._completed_days()
        self._write_progress(days, completed)
        partial = {
            info.timestamp: info.round_id for info in self.store.open_rounds()
        }
        summaries: list[RoundSummary] = []
        for day in days:
            if day in completed:
                continue
            if abort_event is not None and abort_event.is_set():
                raise CampaignInterrupted(scenario.name, day, -1)
            scenario.simulation.advance_to(day)
            try:
                summary = self.platform.run_round(
                    targets, timestamp=day,
                    abort_event=abort_event,
                    resume_round_id=partial.get(day),
                )
            except RoundInterrupted as exc:
                self._write_progress(days, completed)
                raise CampaignInterrupted(
                    scenario.name, day, exc.round_id
                ) from exc
            summaries.append(summary)
            completed.append(day)
            self.store.set_meta("completed_days", json.dumps(completed))
            if progress:
                print(
                    f"[{scenario.name}] day {day:3d}: "
                    f"responsive={summary.responsive} "
                    f"available={summary.available}"
                )
        return CampaignResult(scenario, self.store, summaries)

    def resume(self, progress: bool = False,
               abort_event: asyncio.Event | None = None) -> CampaignResult:
        """Continue an interrupted campaign from its own metadata.

        Reads the scan calendar persisted by a previous :meth:`run` and
        re-enters it; the caller must construct the Campaign with a
        scenario rebuilt from the same parameters (name, seed, size)."""
        raw = self.store.get_meta("scan_days")
        if raw is None:
            raise ValueError(
                "store has no campaign metadata; nothing to resume"
            )
        return self.run(
            scan_days=json.loads(raw),
            progress=progress,
            abort_event=abort_event,
        )
