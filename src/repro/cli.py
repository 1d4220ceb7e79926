"""Command-line interface (``python -m repro <command>``).

Campaigns: ``simulate`` runs a measurement campaign against a simulated
cloud and writes the round database through a pluggable storage engine
(``--store-backend``: the default sqlite file, or the partitioned
columnar directory layout); ``resume`` continues an interrupted one from
the first incomplete day/shard using the parameters persisted in the
database; ``scan`` probes real targets over the network with the
platform's politeness defaults.  ``simulate`` and ``scan`` install
SIGINT/SIGTERM handlers that checkpoint the in-flight shard and exit 0.

Analysis: ``report`` summarises a database, ``lookup`` prints one IP's
history, ``aggregate`` emits the privacy-preserving JSON report.

Operations: ``rounds``, ``stats``, ``verify``, ``rebuild-views`` and
``quarantine`` inspect or repair a database; ``trace`` reads the span
trace of ``--trace-out``; ``watch`` polls a running campaign's metrics
endpoint; ``serve`` answers the query API over HTTP.  Every command
except ``simulate`` auto-detects the engine from what is on disk.

The module's top level imports only the config, the store and the
address helpers; each handler imports what it runs, so ``serve``,
``lookup`` and the other light commands never load numpy, the
simulator or the analysis package.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Sequence

from .cloudsim.addressing import int_to_ip, ip_to_int
from .core.config import StoreConfig
from .core.store import BACKENDS, default_backend, open_store

__all__ = ["main", "build_parser"]


def _install_abort_handler() -> asyncio.Event:
    """Turn SIGINT/SIGTERM into a cooperative abort: the first signal
    asks the platform to checkpoint its current shard and stop cleanly;
    a second one falls back to an immediate KeyboardInterrupt."""
    event = asyncio.Event()

    def handler(signum, frame):
        if event.is_set():
            raise KeyboardInterrupt
        event.set()
        print("\ninterrupt received — checkpointing current shard "
              "(signal again to force quit)", file=sys.stderr)

    try:
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, handler)
    except ValueError:
        pass        # not the main thread (embedded use): no signal hook
    return event


def _chaos_rate(value: str) -> float:
    try:
        rate = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"chaos rate must be a number in [0, 1], got {value!r}"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError(
            f"chaos rate must be in [0, 1], got {rate}"
        )
    return rate


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """Observability knobs shared by ``simulate`` and ``resume``."""
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve Prometheus text metrics on 127.0.0.1:PORT for the "
             "duration of the run (0 picks a free port)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="append per-stage trace spans to PATH as JSONL "
             "(inspect with `repro trace PATH`)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WhoWas: measure web deployments on IaaS clouds "
                    "(IMC 2014 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser(
        "simulate", help="run a campaign against a simulated cloud"
    )
    simulate.add_argument("--cloud", choices=("ec2", "azure"), default="ec2")
    simulate.add_argument("--ips", type=int, default=4096)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--days", type=int, default=None,
                          help="campaign length (default: paper calendar)")
    simulate.add_argument("--out", required=True,
                          help="round database path (sqlite file, or a "
                               "directory with --store-backend columnar)")
    simulate.add_argument("--store-backend", choices=sorted(BACKENDS),
                          default=None,
                          help="storage engine for the round database "
                               "(default: $REPRO_STORE_BACKEND or sqlite)")
    simulate.add_argument("--chaos-rate", type=_chaos_rate, default=0.0,
                          help="inject seeded network faults into this "
                               "fraction of requests (0 disables)")
    simulate.add_argument("--chaos-seed", type=int, default=0,
                          help="seed for the fault plan (with --chaos-rate)")
    simulate.add_argument("--chaos-hostile", action="store_true",
                          help="also serve hostile content (header bombs, "
                               "markup bombs, encoding garbage) at the "
                               "chaos rate")
    simulate.add_argument("--workers", type=int, default=0,
                          help="run each round's shards across N "
                               "supervised worker processes (0/1: "
                               "in-process; output is byte-identical "
                               "either way)")
    _add_telemetry_args(simulate)

    resume = commands.add_parser(
        "resume", help="continue an interrupted simulate campaign"
    )
    resume.add_argument("db", help="round database of the interrupted run")
    resume.add_argument("--workers", type=int, default=None,
                        help="override the worker-process count recorded "
                             "by simulate (default: reuse it)")
    _add_telemetry_args(resume)

    scan = commands.add_parser(
        "scan", help="scan real targets over the network (polite defaults)"
    )
    scan.add_argument("--targets", required=True,
                      help="file with one IPv4 address per line")
    scan.add_argument("--out", required=True)
    scan.add_argument("--timestamp", type=int, default=0)

    report = commands.add_parser(
        "report", help="summarise a measurement database"
    )
    report.add_argument("db")
    report.add_argument("--no-cluster", action="store_true",
                        help="skip the clustering step")
    report.add_argument("--export", metavar="DIR", default=None,
                        help="also write per-figure CSV series to DIR")

    lookup = commands.add_parser(
        "lookup", help="history of one IP address (the WhoWas query)"
    )
    lookup.add_argument("db")
    lookup.add_argument("ip")

    aggregate = commands.add_parser(
        "aggregate", help="privacy-preserving aggregate report (JSON)"
    )
    aggregate.add_argument("db")
    aggregate.add_argument("--cloud", default="unknown")

    rounds = commands.add_parser(
        "rounds", help="list a database's rounds with wall-clock durations"
    )
    rounds.add_argument("db")
    rounds.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of a table")

    stats = commands.add_parser(
        "stats",
        help="per-stage pipeline throughput telemetry for a database",
    )
    stats.add_argument("db")
    stats.add_argument("--round", type=int, default=None,
                       help="show one round in detail (default: all)")
    stats.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON instead of a table")

    watch = commands.add_parser(
        "watch",
        help="live terminal dashboard over a running campaign's "
             "--metrics-port endpoint",
    )
    watch.add_argument("endpoint",
                       help="metrics URL, host:port, or bare port of a "
                            "running `simulate --metrics-port` process")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between polls (default %(default)s)")
    watch.add_argument("--frames", type=int, default=0,
                       help="stop after N frames (0: run until interrupted "
                            "or the endpoint goes away)")
    watch.add_argument("--no-clear", action="store_true",
                       help="append frames instead of redrawing the screen "
                            "(for logs and tests)")

    trace = commands.add_parser(
        "trace",
        help="inspect the span trace written by --trace-out",
    )
    trace.add_argument("source",
                       help="trace JSONL file, or a round database whose "
                            "trace sits next to it as <db>.trace.jsonl")
    trace.add_argument("--stage", default=None,
                       help="only spans of this stage (scan/fetch/extract/"
                            "write/cluster:*)")
    trace.add_argument("--round", type=int, default=None,
                       help="only spans of this round id")
    trace.add_argument("--limit", type=int, default=None, metavar="N",
                       help="show only the last N matching spans")
    trace.add_argument("--json", action="store_true",
                       help="emit the matching spans as a JSON array")

    quarantine = commands.add_parser(
        "quarantine",
        help="inspect or replay the dead-letter quarantine of a database",
    )
    quarantine.add_argument("action", choices=("list", "replay"),
                            help="list entries, or re-extract features "
                                 "for quarantined pages")
    quarantine.add_argument("db")
    quarantine.add_argument("--round", type=int, default=None,
                            help="restrict to one round id")
    quarantine.add_argument("--all", action="store_true",
                            help="include already-replayed entries")

    verify = commands.add_parser(
        "verify",
        help="recompute per-shard checksums and materialized-view "
             "digests; exit nonzero on any mismatch, gap, orphan row, "
             "stale view, or missing or orphan page body",
    )
    verify.add_argument("db")
    verify.add_argument("--round", type=int, default=None,
                        help="verify one round only (default: all, "
                             "including in-progress ones)")

    rebuild = commands.add_parser(
        "rebuild-views",
        help="drop and refold every materialized read model (per-IP "
             "history, round summaries, cluster aggregates) from the "
             "base shard data",
    )
    rebuild.add_argument("db")

    serve = commands.add_parser(
        "serve",
        help="serve the query API over a round database with admission "
             "control, deadlines, and load shedding",
    )
    serve.add_argument("db", help="round database to serve (opened "
                                  "read-only; a concurrent simulate may "
                                  "keep writing to it)")
    serve.add_argument("--host", default=None,
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port (default 8321; 0 picks a free one)")
    serve.add_argument("--rate", type=float, default=None, metavar="RPS",
                       help="admission token-bucket refill rate "
                            "(requests/second)")
    serve.add_argument("--burst", type=float, default=None,
                       help="admission token-bucket burst capacity")
    serve.add_argument("--readers", type=int, default=None, metavar="N",
                       help="read-only sqlite connections (= max "
                            "concurrent store reads)")
    serve.add_argument("--deadline-ms", type=int, default=None,
                       metavar="MS",
                       help="default per-request deadline budget")
    serve.add_argument("--drain-deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="how long a SIGTERM drain waits for in-flight "
                            "requests before force-closing")
    _add_telemetry_args(serve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "resume": _cmd_resume,
        "scan": _cmd_scan,
        "report": _cmd_report,
        "lookup": _cmd_lookup,
        "aggregate": _cmd_aggregate,
        "rounds": _cmd_rounds,
        "stats": _cmd_stats,
        "quarantine": _cmd_quarantine,
        "verify": _cmd_verify,
        "rebuild-views": _cmd_rebuild_views,
        "watch": _cmd_watch,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _build_sim_scenario(params: dict):
    """CLI front for :func:`repro.workloads.build_sim_scenario`: same
    scenario assembly (shared with ``resume`` and spawned partition
    workers), plus a chatty chaos banner that only the interactive
    entrypoint should print."""
    from .workloads.campaign import build_sim_scenario

    scenario = build_sim_scenario(params)
    chaos_rate = params.get("chaos_rate", 0.0)
    if chaos_rate > 0:
        plan = scenario.transport.plan
        print(f"chaos: injecting {len(plan.rules)} fault kinds at "
              f"rate {chaos_rate} (seed {params.get('chaos_seed', 0)})")
    return scenario


def _setup_telemetry(args):
    """Activate process-wide telemetry for ``simulate``/``resume`` and
    start the metrics endpoint if asked.  Must run before the store and
    platform are constructed: instrumented objects cache their metric
    handles at construction time.  Returns the TelemetryConfig to embed
    in the platform config (spawned workers rebuild from it), or None
    when observability was not requested."""
    from .core import telemetry as _telemetry
    from .core.config import TelemetryConfig

    metrics_port = getattr(args, "metrics_port", None)
    trace_out = getattr(args, "trace_out", None)
    if metrics_port is None and trace_out is None:
        return None
    tel_config = TelemetryConfig(enabled=True, trace_path=trace_out)
    tel = _telemetry.configure(tel_config)
    if metrics_port is not None:
        server = _telemetry.start_metrics_server(tel, metrics_port)
        host, port = server.server_address[:2]
        print(f"metrics: http://{host}:{port}/metrics "
              f"(watch with `repro watch {port}`)")
    if trace_out is not None:
        print(f"trace: appending spans to {trace_out}")
    return tel_config


def _sim_campaign(scenario, store, params: dict, telemetry=None):
    """Build the Campaign for ``simulate``/``resume``, wiring in the
    supervised worker pool when the parameters ask for one."""
    import dataclasses

    from .core.config import WorkerConfig
    from .workloads.campaign import (
        Campaign,
        SimTransportFactory,
        simulation_config,
    )

    workers = int(params.get("workers") or 0)
    config = simulation_config()
    backend = params.get("store_backend")
    if backend:
        config = dataclasses.replace(config, store=StoreConfig(backend))
    if telemetry is not None:
        config = dataclasses.replace(config, telemetry=telemetry)
    if workers > 1:
        config = dataclasses.replace(
            config, workers=WorkerConfig(count=workers)
        )
        return Campaign(
            scenario, store=store, config=config,
            transport_factory=SimTransportFactory(dict(params)),
        )
    return Campaign(scenario, store=store, config=config)


def _finish_campaign(result, db_path: str) -> int:
    degraded = [s.round_id for s in result.summaries if s.degraded]
    if degraded:
        print(f"degraded rounds (error budget exceeded): {degraded}")
    print(f"round database written to {db_path}")
    return 0


def _cmd_simulate(args) -> int:
    from .workloads.campaign import CampaignInterrupted

    backend = args.store_backend or default_backend()
    try:
        StoreConfig(backend)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    params = {
        "cloud": args.cloud, "ips": args.ips, "seed": args.seed,
        "days": args.days, "chaos_rate": args.chaos_rate,
        "chaos_seed": args.chaos_seed, "chaos_hostile": args.chaos_hostile,
        "workers": args.workers, "store_backend": backend,
    }
    scenario = _build_sim_scenario(params)
    pool = f", {args.workers} worker processes" if args.workers > 1 else ""
    print(f"simulating {scenario.name}: {len(scenario.targets)} IPs, "
          f"{len(scenario.scan_days)} rounds{pool} "
          f"[{backend} store]")
    telemetry = _setup_telemetry(args)
    store = _open_db(args.out, readonly=False, backend=backend)
    if store is None:
        return 1
    store.set_meta("simulate_args", json.dumps(params))
    abort_event = _install_abort_handler()
    try:
        result = _sim_campaign(
            scenario, store, params, telemetry=telemetry
        ).run(progress=True, abort_event=abort_event)
    except CampaignInterrupted as exc:
        print(f"campaign checkpointed — resumable at day {exc.day}")
        print(f"run `repro resume {args.out}` to continue")
        return 0
    return _finish_campaign(result, args.out)


def _cmd_resume(args) -> int:
    from .workloads.campaign import CampaignInterrupted

    telemetry = _setup_telemetry(args)
    store = _open_db(args.db, readonly=False)
    if store is None:
        return 1
    raw = store.get_meta("simulate_args")
    if raw is None:
        print(f"{args.db}: no campaign metadata; not resumable",
              file=sys.stderr)
        return 1
    params = json.loads(raw)
    if args.workers is not None:
        params["workers"] = args.workers
    scenario = _build_sim_scenario(params)
    campaign = _sim_campaign(scenario, store, params, telemetry=telemetry)
    done = len(json.loads(store.get_meta("completed_days") or "[]"))
    total = len(json.loads(store.get_meta("scan_days") or "[]"))
    partial = store.open_rounds()
    print(f"resuming {scenario.name}: {done}/{total} days complete"
          + (f", partial round at day {partial[0].timestamp}"
             if partial else ""))
    abort_event = _install_abort_handler()
    try:
        result = campaign.resume(progress=True, abort_event=abort_event)
    except CampaignInterrupted as exc:
        print(f"campaign checkpointed — resumable at day {exc.day}")
        print(f"run `repro resume {args.db}` to continue")
        return 0
    return _finish_campaign(result, args.db)


def _cmd_scan(args) -> int:
    from .core.platform import RoundInterrupted, WhoWas
    from .core.transport import SocketTransport

    with open(args.targets) as handle:
        targets = [ip_to_int(line.strip()) for line in handle if line.strip()]
    if not targets:
        print("no targets", file=sys.stderr)
        return 1
    store = _open_db(args.out, readonly=False)
    if store is None:
        return 1
    platform = WhoWas(SocketTransport(), store)
    # A previous interrupted scan of the same timestamp resumes instead
    # of starting over.
    resume_id = next(
        (info.round_id for info in store.open_rounds()
         if info.timestamp == args.timestamp),
        None,
    )
    abort_event = _install_abort_handler()
    try:
        summary = platform.run_round(
            targets, timestamp=args.timestamp,
            abort_event=abort_event, resume_round_id=resume_id,
        )
    except RoundInterrupted as exc:
        print(f"scan checkpointed after {exc.shards_done}/{exc.shards_total} "
              f"shards — resumable at day {exc.timestamp}")
        print(f"re-run the same scan against {args.out} to continue")
        return 0
    except ValueError as exc:
        print(f"cannot start round: {exc}", file=sys.stderr)
        return 1
    print(f"probed {len(targets)} targets: responsive={summary.responsive} "
          f"available={summary.available}")
    return 0


def _cmd_report(args) -> int:
    from .analysis.census import SoftwareCensus, SshCensus
    from .analysis.clustering import WebpageClusterer
    from .analysis.dataset import Dataset
    from .analysis.dynamics import DynamicsAnalyzer

    store = _open_db(args.db)
    if store is None:
        return 1
    dataset = Dataset.from_store(store)
    if not dataset.rounds:
        print("database holds no rounds", file=sys.stderr)
        return 1
    clustering = None
    if not args.no_cluster:
        clustering = WebpageClusterer().cluster(dataset)
    dynamics = DynamicsAnalyzer(dataset, clustering)
    print(f"rounds: {dataset.round_count}, "
          f"targets probed: {dynamics.space_size()}")
    degraded = [info.round_id for info in store.rounds() if info.degraded]
    if degraded:
        print(f"degraded rounds: {len(degraded)}/{dataset.round_count} "
              f"{degraded}")
    for name, summary in dynamics.usage_summary().items():
        print(f"  {name:<10} avg {summary.average:9.1f}  "
              f"growth {summary.growth_pct:+.1f}%")
    if dataset.round_count >= 2:
        rates = dynamics.churn_rates()
        print(f"churn: overall {rates.overall:.2f}%  "
              f"responsiveness {rates.responsiveness:.2f}%  "
              f"availability {rates.availability:.2f}%")
    print("port profiles:", {
        k: round(v, 1) for k, v in dynamics.port_profile_table().items()
    })
    print("status classes:", {
        k: round(v, 1) for k, v in dynamics.status_code_table().items()
    })
    census = SoftwareCensus(dataset).report()
    print("server families:", {
        k: round(v, 1)
        for k, v in list(census.server_family_shares.items())[:5]
    })
    ssh = SshCensus(dataset).report()
    if ssh.banner_counts:
        print("ssh products:", {
            k: round(v, 1) for k, v in list(ssh.product_shares.items())[:3]
        })
    if clustering is not None:
        print(f"clusters: {clustering.stats.final_clusters} final "
              f"(threshold {clustering.threshold})")
        if args.export:
            from .analysis.export import FigureExporter

            written = FigureExporter(dataset, clustering).export_all(
                args.export
            )
            print(f"wrote {len(written)} CSV series to {args.export}")
    return 0


def _cmd_lookup(args) -> int:
    store = _open_db(args.db)
    if store is None:
        return 1
    history = store.history(ip_to_int(args.ip))
    if not history:
        print(f"{args.ip}: never responsive")
        return 0
    for record in history:
        features = record.features
        title = features.title if features else "-"
        server = features.server if features else "-"
        print(f"day {record.timestamp:3d}  "
              f"ports={','.join(str(p) for p in sorted(record.probe.open_ports)):<10} "
              f"code={record.fetch.status_code}  server={server}  "
              f"title={title!r}")
    return 0


def _cmd_aggregate(args) -> int:
    from .analysis.aggregates import build_aggregate_report
    from .analysis.clustering import WebpageClusterer
    from .analysis.dataset import Dataset

    store = _open_db(args.db)
    if store is None:
        return 1
    dataset = Dataset.from_store(store)
    clustering = WebpageClusterer().cluster(dataset)
    report = build_aggregate_report(args.cloud, dataset, clustering)
    report.assert_private()
    print(report.to_json())
    return 0


def _open_db(path: str, *, readonly: bool = True, **kwargs):
    """Open a database for a command — read-only for the analysis
    commands, so they can never take a write lock away from (or leave
    WAL litter behind for) a campaign that is still writing.  The
    engine is auto-detected from what is on disk.  Prints a one-line
    error and returns None when the store cannot be opened: an absent
    or unreadable path, an unknown backend, or an unsupported format."""
    import sqlite3

    try:
        return open_store(path, readonly=readonly, **kwargs)
    except (sqlite3.OperationalError, FileNotFoundError, ValueError) as exc:
        mode = " read-only" if readonly else ""
        print(f"{path}: cannot open database{mode} ({exc})", file=sys.stderr)
        return None


def _cmd_rounds(args) -> int:
    import dataclasses

    store = _open_db(args.db)
    if store is None:
        return 1
    rounds = store.rounds()
    if args.json:
        payload = {
            "rounds": [dataclasses.asdict(info) for info in rounds],
            "in_progress": [
                dataclasses.asdict(info) for info in store.open_rounds()
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not rounds:
        print("database holds no finalized rounds", file=sys.stderr)
        return 1
    print(f"{'round':>5}  {'day':>4}  {'targets':>7}  {'resp':>6}  "
          f"{'errors':>6}  {'status':<9}  {'duration':>9}")
    for info in rounds:
        print(f"{info.round_id:>5}  {info.timestamp:>4}  "
              f"{info.targets_probed:>7}  {info.responsive_count:>6}  "
              f"{info.error_count:>6}  {info.status:<9}  "
              f"{info.duration_seconds:>8.2f}s")
    partial = store.open_rounds()
    if partial:
        print(f"+ {len(partial)} in-progress round(s): "
              f"{[p.round_id for p in partial]}")
    return 0


def _load_pipeline_stats(store, round_id: int):
    from .core.records import PIPELINE_STATS_META_PREFIX, PipelineStats

    raw = store.get_meta(f"{PIPELINE_STATS_META_PREFIX}{round_id}")
    if raw is None:
        return None
    return PipelineStats.from_dict(json.loads(raw))


def _cmd_stats(args) -> int:
    store = _open_db(args.db)
    if store is None:
        return 1
    rounds = store.rounds()
    if args.round is not None:
        rounds = [i for i in rounds if i.round_id == args.round]
        if not rounds:
            print(f"no finalized round {args.round}", file=sys.stderr)
            return 1
    if not rounds:
        print("database holds no finalized rounds", file=sys.stderr)
        return 1
    if args.json:
        payload = []
        for info in rounds:
            stats = _load_pipeline_stats(store, info.round_id)
            if stats is None:
                continue
            payload.append({
                "round_id": info.round_id,
                "day": info.timestamp,
                "stats": stats.to_dict(),
            })
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    shown = 0
    for info in rounds:
        stats = _load_pipeline_stats(store, info.round_id)
        if stats is None:
            continue
        shown += 1
        print(f"round {info.round_id} (day {info.timestamp}) — "
              f"{stats.mode}: {stats.records_written} records in "
              f"{stats.wall_seconds:.2f}s "
              f"({stats.records_per_second:.0f} rec/s)")
        order = {"scan": 0, "fetch": 1, "extract": 2, "write": 3}
        stages = sorted(
            stats.stages.values(),
            key=lambda s: (order.get(s.name, len(order)), s.name),
        )
        for stage in stages:
            print(f"  {stage.name:<8} shards={stage.shards:<4} "
                  f"items={stage.items:<6} busy={stage.busy_seconds:6.2f}s "
                  f"({stage.items_per_second:8.0f} items/s)  "
                  f"queue_peak={stage.queue_peak} "
                  f"waits={stage.backpressure_waits}")
        if stats.writer_flushes:
            avg = stats.writer_flush_seconds / stats.writer_flushes
            print(f"  writer   flushes={stats.writer_flushes} "
                  f"avg={avg * 1000:.1f}ms "
                  f"max={stats.writer_max_flush_seconds * 1000:.1f}ms")
        if stats.worker_count:
            print(f"  workers  pool={stats.worker_count} "
                  f"restarts={stats.worker_restarts} "
                  f"reassigned={stats.partition_reassignments} "
                  f"failed={stats.partitions_failed} "
                  f"merged={stats.partitions_merged} "
                  f"max_heartbeat_age={stats.max_heartbeat_age:.2f}s")
        for part_id in sorted(stats.partitions, key=int):
            part_stages = stats.partitions[part_id]
            detail = "  ".join(
                f"{name}={part_stages[name].items}"
                for name in sorted(
                    part_stages,
                    key=lambda n: (order.get(n, len(order)), n),
                )
            )
            busy = sum(s.busy_seconds for s in part_stages.values())
            print(f"    partition {part_id:<3} {detail}  "
                  f"busy={busy:6.2f}s")
    if shown == 0:
        print("no pipeline telemetry recorded (database predates the "
              "streaming pipeline)", file=sys.stderr)
        return 1
    return 0


def _cmd_quarantine(args) -> int:
    from .core.features import FeatureExtractor

    store = _open_db(args.db, readonly=False)
    if store is None:
        return 1
    entries = store.quarantine_rows(
        args.round, include_replayed=(args.all or args.action == "list")
    )
    if args.action == "list":
        if not entries:
            print("quarantine is empty")
            return 0
        for entry in entries:
            flag = "replayed" if entry.replayed else "pending"
            detail = entry.error_class or ""
            print(f"#{entry.entry_id:<5} round {entry.round_id:<4} "
                  f"ip {int_to_ip(entry.ip):<15} {entry.stage:<7} "
                  f"{entry.verdict:<14} {flag:<8} {detail}")
        print(f"{len(entries)} entries")
        return 0

    # replay: re-extract features for quarantined pages from the stored
    # bodies.  Fetch-stage entries have no page to re-process offline.
    extractor = FeatureExtractor()
    replayed = failed = skipped = 0
    for entry in entries:
        if entry.stage != "extract":
            skipped += 1
            continue
        record = store.record(entry.round_id, entry.ip)
        if record is None or record.fetch.body is None:
            skipped += 1
            continue
        try:
            features = extractor.extract(record.fetch)
        except Exception as exc:
            failed += 1
            print(f"#{entry.entry_id} ip {int_to_ip(entry.ip)}: extractor "
                  f"still fails ({type(exc).__name__}: {exc})",
                  file=sys.stderr)
            continue
        store.update_features(entry.round_id, entry.ip, features)
        if entry.entry_id is not None:
            store.mark_quarantine_replayed(entry.entry_id)
        replayed += 1
    print(f"replayed {replayed} entries "
          f"({failed} still failing, {skipped} skipped)")
    return 0 if failed == 0 else 1


def _cmd_verify(args) -> int:
    store = _open_db(args.db)
    if store is None:
        return 1
    infos = store.rounds() + store.open_rounds()
    if args.round is not None:
        infos = [i for i in infos if i.round_id == args.round]
        if not infos:
            print(f"no round {args.round} in {args.db}", file=sys.stderr)
            return 1
    if not infos:
        print("database holds no rounds", file=sys.stderr)
        return 1
    failed = 0
    for info in sorted(infos, key=lambda i: i.round_id):
        report = store.verify_round(info.round_id)
        print(report.describe())
        if not report.ok:
            failed += 1
    orphans = store.orphan_bodies()
    if orphans:
        print(f"bodies: FAIL — {orphans} stored bodies no round references")
    if failed or orphans:
        print(f"verification FAILED for {failed} of {len(infos)} round(s)"
              + (f" and {orphans} orphan bodies" if orphans else ""),
              file=sys.stderr)
        return 1
    print(f"all {len(infos)} round(s) verified")
    return 0


def _cmd_rebuild_views(args) -> int:
    store = _open_db(args.db, readonly=False)
    if store is None:
        return 1
    refolded = store.rebuild_views()
    print(f"rebuilt materialized views for {refolded} round(s)")
    return 0


def _cmd_serve(args) -> int:
    import dataclasses
    import sqlite3

    from .core.config import ServeConfig
    from .serve.app import ServeApp

    overrides = {}
    if args.host is not None:
        overrides["host"] = args.host
    if args.port is not None:
        overrides["port"] = args.port
    if args.rate is not None:
        overrides["rate_per_second"] = args.rate
    if args.burst is not None:
        overrides["burst"] = args.burst
    if args.readers is not None:
        overrides["readers"] = args.readers
    if args.deadline_ms is not None:
        overrides["default_deadline"] = args.deadline_ms / 1000.0
        overrides["max_deadline"] = max(
            ServeConfig().max_deadline, args.deadline_ms / 1000.0
        )
    if args.drain_deadline is not None:
        overrides["drain_deadline"] = args.drain_deadline
    try:
        config = dataclasses.replace(ServeConfig(), **overrides)
    except ValueError as exc:
        print(f"bad serve configuration: {exc}", file=sys.stderr)
        return 1

    _setup_telemetry(args)

    async def run() -> int:
        app = ServeApp(args.db, config)
        try:
            await app.start()
        except (sqlite3.OperationalError, FileNotFoundError,
                ValueError) as exc:
            print(f"{args.db}: cannot open database read-only ({exc})",
                  file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"cannot bind {config.host}:{config.port}: {exc}",
                  file=sys.stderr)
            return 1
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        hooked = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                hooked.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass
        # CI and the smoke tests parse this exact line for the port.
        print(f"serving {args.db} on http://{config.host}:{app.port}",
              flush=True)
        try:
            await stop.wait()
        finally:
            for sig in hooked:
                loop.remove_signal_handler(sig)
        print("drain: refusing new requests, finishing "
              f"{app.in_flight} in-flight", file=sys.stderr)
        clean = await app.drain()
        if not clean:
            print("drain: deadline exceeded, force-closed stragglers",
                  file=sys.stderr)
        return 0

    return asyncio.run(run())


def _cmd_watch(args) -> int:
    from . import dashboard

    url = dashboard.normalize_endpoint(args.endpoint)
    return dashboard.watch(
        url, interval=args.interval, frames=args.frames,
        clear=not args.no_clear,
    )


def _resolve_trace_path(source: str) -> str:
    """A ``.jsonl`` argument is the trace itself; anything else is a
    round database whose trace sits next to it as ``<db>.trace.jsonl``
    (the path `simulate --trace-out` documentation recommends)."""
    if source.endswith(".jsonl"):
        return source
    return f"{source}.trace.jsonl"


def _cmd_trace(args) -> int:
    import os

    from .core.telemetry import read_trace

    path = _resolve_trace_path(args.source)
    if not os.path.exists(path):
        print(f"no trace at {path} — run simulate with "
              f"`--trace-out {path}` to record one", file=sys.stderr)
        return 1
    spans = [
        span for span in read_trace(path)
        if (args.stage is None or span.stage == args.stage)
        and (args.round is None or span.round_id == args.round)
    ]
    if args.limit is not None:
        spans = spans[-args.limit:]
    if args.json:
        print(json.dumps([span.to_dict() for span in spans], indent=2))
        return 0
    if not spans:
        print("no matching spans", file=sys.stderr)
        return 1
    print(f"{'stage':<16}{'round':>6}{'shard':>6}{'worker':>7}"
          f"{'outcome':>8}{'ms':>10}  error")
    for span in spans:
        print(f"{span.stage:<16}"
              f"{span.round_id if span.round_id is not None else '-':>6}"
              f"{span.shard if span.shard is not None else '-':>6}"
              f"{span.worker if span.worker is not None else '-':>7}"
              f"{span.outcome:>8}{span.duration * 1000:>10.2f}  "
              f"{span.error_kind or ''}")
    print(f"{len(spans)} span(s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
