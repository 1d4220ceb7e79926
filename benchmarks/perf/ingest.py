"""The two ingest workloads, and the fixture the read-side workloads use.

``ingest_cpu`` runs the product's campaign loop (advance the simulated
cloud to a scan day, ``WhoWas.run_round`` over every target) against a
zero-latency transport: scanner, fetcher, feature/simhash, row encode
and the sqlite commit + view fold do all the work, and stage overlap
cannot help on one core.  ``ingest_wait`` runs the same pipeline
through a 20 ms-per-operation transport, so the CPU idles and overlap,
queue depths, concurrency and worker supervision decide the result; a
faster simhash should not move it.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import WorkerConfig
from repro.core.store import open_store
from repro.core.store.base import rows_checksum
from repro.workloads import Campaign, build_sim_scenario, simulation_config

from . import layers
from .common import (
    OUT_DIR,
    PERF_DIR,
    Params,
    Result,
    check,
    disk_bytes,
    child_env,
    peak_rss_mb,
    scratch_dir,
    success_share,
    timed,
)
from .stats import undisturbed
from .tracing import Tracer
from .transports import LatencySimFactory, LatencyTransport, TracingTransport

CPU_IPS = 40_000
#: Warm rounds after the cold one at the nominal run length.
CPU_WARM_ROUNDS = 4
WAIT_IPS = 16_384
WAIT_ROUNDS = 1
WAIT_LATENCY = 0.020
WAIT_CONCURRENCY = 128
#: The store ``analyze`` and ``serve`` read is ``ingest_cpu``'s after
#: this many rounds: every run builds its own, so it cannot have more.
FIXTURE_ROUNDS = 2
#: Set-up is timed around the measured campaign's own construction and
#: this many times more on empty stores, the median reported.  The
#: repeats come last: before the cold round they would warm it, and
#: before ``ru_maxrss`` is read they would add a second scenario to it.
SETUP_REPEATS = 4


@dataclass
class RoundRun:
    day: int
    wall: float
    cpu: float
    summary: object

    @property
    def records(self) -> int:
        return self.summary.pipeline.records_written


def sim_params(ips: int, seed: int) -> dict:
    return {"cloud": "ec2", "ips": ips, "seed": seed}


def open_campaign(sim: dict, store_path: Path, config, tracer: Tracer,
                  *, latency: float = 0.0) -> Campaign:
    """Everything a first round needs: scenario build, store open and
    ``WhoWas`` construction — the work ``setup_s`` times."""
    scenario = build_sim_scenario(dict(sim))
    if tracer.enabled:
        scenario.transport = TracingTransport(scenario.transport, tracer)
    factory = None
    if latency:
        scenario.transport = LatencyTransport(scenario.transport, latency)
        factory = LatencySimFactory(dict(sim), latency)
    store = open_store(str(store_path), backend="sqlite")
    return Campaign(scenario, store, config, transport_factory=factory)


def close_campaign(campaign: Campaign) -> None:
    campaign.platform.close()
    campaign.store.close()


def setup_seconds(first: float, sim: dict, config, tmp: Path, *,
                  latency: float = 0.0) -> float:
    """Median of *first* and :data:`SETUP_REPEATS` more constructions."""
    samples = [first]
    for index in range(SETUP_REPEATS):
        spent, campaign = timed(
            open_campaign, sim, tmp / f"setup{index}.sqlite", config,
            Tracer(enabled=False), latency=latency)
        close_campaign(campaign)
        samples.append(spent)
    return statistics.median(samples)


def run_rounds(campaign: Campaign, days, tracer: Tracer,
               pages: PageProbe | None = None) -> list[RoundRun]:
    """``Campaign.run``'s loop with each round timed alone."""
    scenario = campaign.scenario
    runs = []
    for day in days:
        with tracer.span("round", round=day):
            scenario.simulation.advance_to(day)
            cpu = time.process_time()
            begun = time.perf_counter()
            summary = campaign.platform.run_round(
                scenario.targets, timestamp=day)
            wall = time.perf_counter() - begun
            runs.append(
                RoundRun(day, wall, time.process_time() - cpu, summary))
        if pages:
            pages.end_round()
    return runs


def check_rounds(store, runs: list[RoundRun]) -> None:
    for run in runs:
        round_id = run.summary.round_id
        verdict = store.verify_round(round_id)
        check(verdict.ok, f"round {round_id}: {verdict.describe()}")
        stored = len(store.responsive_ips(round_id))
        check(
            stored == run.summary.responsive == run.records and stored > 0,
            f"round {round_id}: {stored} rows stored, "
            f"{run.summary.responsive} responsive, {run.records} written",
        )


def build_fixture(path: Path, seed: int, scale: float) -> dict:
    """The campaign store ``analyze`` and ``serve`` read."""
    off = Tracer(enabled=False)
    sim = sim_params(Params(seed=seed, scale=scale).scaled(CPU_IPS), seed)
    begun = time.perf_counter()
    campaign = open_campaign(sim, path, simulation_config(), off)
    runs = run_rounds(
        campaign, campaign.scenario.scan_days[:FIXTURE_ROUNDS], off)
    check_rounds(campaign.store, runs)
    close_campaign(campaign)
    records = sum(run.records for run in runs)
    return {
        "fixture_s": time.perf_counter() - begun,
        "records": records,
        "rounds": len(runs),
        "ips": sim["ips"],
        "db_bytes_per_record": disk_bytes(path) / records,
    }


def fixture_in_child(path: Path, params: Params) -> dict:
    """Build the fixture in a child interpreter, so neither its memory
    nor its warmed caches reach the workload that reads it."""
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--build-fixture",
         str(path), "--seed", str(params.seed), "--scale", str(params.scale)],
        env=child_env(), stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# tracing


class PageProbe:
    """Sits on ``FeatureExtractor.extract`` in a traced run: counts
    pages and their busy time, keeps the first shard's fetches for the
    isolated drivers, and tracks how many bodies were already seen in
    an earlier round — the ceiling of what the simhash memo can save."""

    CAPTURE = 1000

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.captured = []
        self.later_pages = 0
        self.repeated = 0
        self._earlier: set[int] = set()
        self._this_round: set[int] = set()

    def attach(self, extractor) -> None:
        extract = extractor.extract
        clock = self.tracer.clock

        def probed(fetch):
            self._note(fetch)
            begun = clock()
            try:
                return extract(fetch)
            finally:
                self.tracer.add("features.extract", clock() - begun)

        extractor.extract = probed

    def _note(self, fetch) -> None:
        if len(self.captured) < self.CAPTURE:
            self.captured.append(fetch)
        # In-process and statistical only, so builtin hash() will do.
        digest = hash(fetch.body)
        if self._earlier:
            self.later_pages += 1
            self.repeated += digest in self._earlier
        self._this_round.add(digest)

    def end_round(self) -> None:
        self._earlier |= self._this_round
        self._this_round = set()


def instrument(campaign: Campaign, tracer: Tracer) -> PageProbe | None:
    """Wrap the calls into each layer on the objects this run built."""
    if not tracer.enabled:
        return None
    platform = campaign.platform
    tracer.wrap(campaign.scenario.simulation, "advance_to",
                "cloudsim.advance")
    tracer.wrap(platform.scanner, "scan", "scanner.scan")
    tracer.wrap(platform.fetcher, "fetch", "fetcher.fetch")
    tracer.wrap(platform.guard, "extract_features",
                "guard.extract_features", counted=True)
    tracer.wrap(campaign.store, "write_shards", "store.write_shards")
    tracer.wrap(campaign.store, "write_shard", "store.write_shard")
    pages = PageProbe(tracer)
    pages.attach(platform.features)
    return pages


def round_layers(campaign: Campaign, tracer: Tracer, pages: PageProbe,
                 runs: list[RoundRun]) -> dict:
    """Per-layer metrics of the in-process rounds just run."""
    platform = campaign.platform
    stats = [run.summary.pipeline for run in runs]
    wall = sum(run.wall for run in runs)
    scan = platform.scanner.stats_snapshot()
    fetch = platform.fetcher.stats_snapshot()
    writer = campaign.store.writer_stats_snapshot()
    out = {
        "cloudsim.probe_calls": tracer.count("cloudsim.probe"),
        "cloudsim.get_calls": tracer.count("cloudsim.get"),
        "cloudsim.busy_s": sum(
            tracer.seconds(f"cloudsim.{op}")
            for op in ("probe", "get", "banner")
        ),
        "cloudsim.advance_s": tracer.total("cloudsim.advance"),
        "scanner.targets": sum(s.stage("scan").items for s in stats),
        "scanner.probes": scan["probes_sent"],
        "scanner.probe_errors": scan["probe_errors"],
        "scanner.span_s": tracer.total("scanner.scan"),
        "scanner.self_s": tracer.total("scanner.scan")
        - tracer.seconds("cloudsim.probe<scanner.scan"),
        "fetcher.ips": sum(s.stage("fetch").items for s in stats),
        "fetcher.gets": fetch["gets_sent"],
        "fetcher.errors": fetch["fetch_errors"],
        "fetcher.span_s": tracer.total("fetcher.fetch"),
        "fetcher.self_s": tracer.total("fetcher.fetch")
        - tracer.seconds("cloudsim.get<fetcher.fetch"),
        "guard.quarantined": sum(run.summary.quarantined for run in runs),
        "guard.extract_calls": tracer.count("guard.extract_features"),
        "features.pages": tracer.count("features.extract"),
        "features.span_s": tracer.seconds("features.extract"),
        "features.repeat_body_share": (
            pages.repeated / pages.later_pages if pages.later_pages else 0.0
        ),
        "pipeline.wall_s": sum(s.wall_seconds for s in stats),
        "pipeline.backpressure_waits": sum(
            stage.backpressure_waits
            for s in stats for stage in s.stages.values()
        ),
        "pipeline.writer_flushes": sum(s.writer_flushes for s in stats),
        "pipeline.writer_max_batch": max(s.writer_max_batch for s in stats),
        "platform.round_overhead_s": wall
        - sum(s.wall_seconds for s in stats),
        "platform.cpu_share": sum(run.cpu for run in runs) / wall,
        "store.sqlite.write_span_s": tracer.total("store.write_shards")
        + tracer.total("store.write_shard"),
        "store.sqlite.flush_s": writer["flush_seconds"],
        "store.sqlite.commits": writer["flush_count"],
    }
    busy = 0.0
    for name in ("scan", "fetch", "extract", "write"):
        stages = [s.stage(name) for s in stats]
        out[f"pipeline.busy_s.{name}"] = sum(
            stage.busy_seconds for stage in stages
        )
        out[f"pipeline.queue_peak.{name}"] = max(
            stage.queue_peak for stage in stages
        )
        busy += out[f"pipeline.busy_s.{name}"]
    out["pipeline.overlap_ratio"] = busy / out["pipeline.wall_s"]
    return out


# ----------------------------------------------------------------------
# workloads


@dataclass
class Ingested:
    """What the in-process rounds of an ingest workload produced."""

    runs: list[RoundRun]
    targets: int
    #: Seconds the measured campaign's own construction took.
    opened_s: float
    rss: float
    per_layer: dict
    #: The store, closed (gone with the scratch directory).
    path: Path
    records: int
    bytes_per_record: float

    @property
    def wall(self) -> float:
        return sum(run.wall for run in self.runs)

    @property
    def quarantined(self) -> int:
        return sum(run.summary.quarantined for run in self.runs)

    def result(self, setup_s: float, *, attempted: int, failed: int,
               end_to_end: dict, named: dict, **fields) -> Result:
        """The workload's result, with the readings both ingest
        workloads take the same way filled in."""
        return Result(
            attempted=attempted, failed=failed,
            end_to_end={
                "setup_s": setup_s,
                "peak_rss_mb": self.rss,
                "db_bytes_per_record": self.bytes_per_record,
                "within_limit_share": success_share(attempted, failed),
                **end_to_end,
            },
            named={"setup_s": setup_s, **named},
            per_layer=self.per_layer,
            counts={"records": self.records},
            **fields,
        )


def _round_checksum(store, round_id: int) -> str:
    return rows_checksum(r.to_row() for r in store.records(round_id))


def ingest_rounds(name: str, sim: dict, config, rounds: int, tmp: Path,
                  tracer: Tracer, *, latency: float = 0.0) -> Ingested:
    """Run *rounds* rounds in this process on a fresh store, check
    them, and close the store so its size on disk can be read."""
    path = tmp / f"{name}.sqlite"
    opened_s, campaign = timed(
        open_campaign, sim, path, config, tracer, latency=latency)
    pages = instrument(campaign, tracer)
    runs = run_rounds(
        campaign, campaign.scenario.scan_days[:rounds], tracer, pages)
    rss = peak_rss_mb()
    per_layer = {}
    if tracer.enabled:
        per_layer = round_layers(campaign, tracer, pages, runs)
        per_layer.update(layers.page_layers(pages.captured))
        per_layer.update(layers.record_layers(campaign.store))
    check_rounds(campaign.store, runs)
    targets = len(campaign.scenario.targets)
    close_campaign(campaign)
    records = sum(run.records for run in runs)
    return Ingested(runs, targets, opened_s, rss, per_layer, path, records,
                    disk_bytes(path) / records)


def ingest_cpu(params: Params, import_s: float) -> Result:
    tracer = Tracer(params.trace)
    sim = sim_params(params.scaled(CPU_IPS), params.seed)
    config = simulation_config()
    rounds = 1 + params.repeats(CPU_WARM_ROUNDS, least=2)
    with scratch_dir() as tmp:
        done = ingest_rounds("ingest_cpu", sim, config, rounds, tmp, tracer)
        setup_s = import_s + setup_seconds(done.opened_s, sim, config, tmp)
    cold, warm = done.runs[0], done.runs[1:]
    records_per_s = undisturbed(
        (run.records / run.wall for run in warm), better="higher")
    tracer.write(OUT_DIR / "trace_ingest_cpu.jsonl")
    return done.result(
        setup_s,
        attempted=done.targets * rounds,
        failed=done.quarantined,
        end_to_end={"throughput_per_s": records_per_s,
                    "latency_ms": cold.wall * 1000.0},
        named={"records_per_s": records_per_s, "cold_round_s": cold.wall,
               "db_bytes_per_record": done.bytes_per_record,
               "peak_rss_mb": done.rss},
        timings={
            "warm_round_s": {
                "n": len(warm),
                "median": statistics.median(run.wall for run in warm),
            },
            "cold_round_s": {"n": 1, "median": cold.wall},
        },
        meta={"ips": sim["ips"], "rounds": rounds,
              "cpu_share": sum(run.cpu for run in done.runs) / done.wall,
              "records_per_round": [run.records for run in done.runs],
              "round_s": [run.wall for run in done.runs]},
    )


def ingest_wait(params: Params, import_s: float) -> Result:
    tracer = Tracer(params.trace)
    sim = sim_params(params.scaled(WAIT_IPS), params.seed)
    base = simulation_config()
    config = dataclasses.replace(
        base,
        scan=dataclasses.replace(base.scan, concurrency=WAIT_CONCURRENCY),
        fetch=dataclasses.replace(base.fetch, workers=WAIT_CONCURRENCY),
    )
    rounds = params.repeats(WAIT_ROUNDS)
    off = Tracer(enabled=False)
    with scratch_dir() as tmp:
        done = ingest_rounds("ingest_wait", sim, config, rounds, tmp, tracer,
                             latency=WAIT_LATENCY)

        # The same first round once more, on two spawned workers.
        first = done.runs[0]
        with open_store(str(done.path), readonly=True) as store:
            reference = _round_checksum(store, first.summary.round_id)
        pooled = open_campaign(
            sim, tmp / "ingest_wait_workers2.sqlite",
            dataclasses.replace(config, workers=WorkerConfig(count=2)),
            off, latency=WAIT_LATENCY,
        )
        with tracer.span("workers.round", round=first.day):
            (pooled_run,) = run_rounds(pooled, [first.day], off)
        check_rounds(pooled.store, [pooled_run])
        check(
            _round_checksum(pooled.store, pooled_run.summary.round_id)
            == reference,
            "workers.count = 2 stored different rows than the "
            "in-process round",
        )
        close_campaign(pooled)
        setup_s = import_s + setup_seconds(
            done.opened_s, sim, config, tmp, latency=WAIT_LATENCY)
    stats = pooled_run.summary.pipeline
    check(stats.partitions_merged == 2,
          f"{stats.partitions_merged} partitions merged, expected 2")
    workers2_records_per_s = pooled_run.records / pooled_run.wall
    if tracer.enabled:
        done.per_layer.update({
            "workers.round_s": pooled_run.wall,
            "workers.records_per_s": workers2_records_per_s,
            "workers.partitions_merged": stats.partitions_merged,
            "workers.restarts": stats.worker_restarts,
            "workers.max_heartbeat_age_s": stats.max_heartbeat_age,
            "workers.speedup": first.wall / pooled_run.wall,
        })
    tracer.write(OUT_DIR / "trace_ingest_wait.jsonl")
    return done.result(
        setup_s,
        attempted=done.targets * (rounds + 1),
        failed=done.quarantined + pooled_run.summary.quarantined,
        end_to_end={"throughput_per_s": done.records / done.wall,
                    "latency_ms": pooled_run.wall * 1000.0},
        named={"records_per_s": done.records / done.wall,
               "workers2_records_per_s": workers2_records_per_s},
        timings={
            "round_s": {
                "n": rounds,
                "median": statistics.median(run.wall for run in done.runs),
            },
            "workers2_round_s": {"n": 1, "median": pooled_run.wall},
        },
        meta={"ips": sim["ips"], "rounds": rounds,
              "latency_s": WAIT_LATENCY, "concurrency": WAIT_CONCURRENCY,
              "cpu_share": sum(run.cpu for run in done.runs) / done.wall},
    )
