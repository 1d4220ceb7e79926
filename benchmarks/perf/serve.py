"""The ``serve`` workload: lookup latency and capacity of ``repro serve``.

It uses the store a third way — indexed point reads through the folded
read models, via ``serve.app`` → ``serve.resilience`` →
``serve.queries`` — against the real CLI in a subprocess.  Admission is
opened up (``--rate`` / ``--burst``) so the machine is measured, not
the token bucket; everything else is ``ServeConfig``'s default.  A
change that thins the read models speeds ingest up and must show here
as a loss.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

from repro.cloudsim.addressing import ip_to_int
from repro.core.store import open_store

from . import layers, loadgen
from .common import (
    OUT_DIR,
    CheckFailed,
    Params,
    Result,
    check,
    child_env,
    scratch_dir,
)
from .ingest import fixture_in_child
from .stats import percentile, summarize, undisturbed
from .tracing import Tracer

#: Open-loop offered rate: about half of what the closed loop below
#: completes on the 2-CPU sandbox at its slowest (1 100–2 000
#: requests/s).  From 800 up, with at most ``nproc`` connections, the
#: requests queue in the generator for a free one faster than they
#: drain.
RATE = 600.0
#: An answer later than this misses the limit, like one refused.
LIMIT_S = 0.025
#: The two loops alternate, CYCLES times each at the nominal run
#: length, so that both sample the whole run: the sandbox's CPU speed
#: shifts by a third for seconds at a time, and a loop run in one piece
#: can sit entirely inside such a stretch.
CYCLES = 6
OPEN_SECONDS = 1.5
CLOSED_SECONDS = 0.75
CLOSED_CLIENTS = 2
#: Paths generated per closed-loop cycle: more than one cycle can send,
#: so no cycle replays another's requests.
CLOSED_PATHS = 2048
CHECKED_IPS = 50
#: Servers started and stopped after the measured one, for ``setup_s``.
SETUP_REPEATS = 4
#: Above this the generator, not the server, set the latencies.
MAX_LAG_MS = 5.0
HOST = "127.0.0.1"
SERVE_ARGS = ("--port", "0", "--rate", "100000", "--burst", "100000",
              "--deadline-ms", "1000")


def split_cpus() -> tuple[set[int], set[int]] | None:
    """``(server CPUs, generator CPUs)``, disjoint — or None on one CPU.
    Left to the scheduler, the closed loop on the 2-CPU sandbox reads
    anything from 750 to 1900 requests/s depending on where server and
    generator land; apart, where they land is out of it.  The generator
    takes the first CPU, which also takes most interrupts."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return set(cpus[1:]), {cpus[0]}


def start_server(path: Path, cpus: set[int] | None):
    """``repro serve`` in a subprocess, confined to *cpus*; returns it
    with its port and the seconds from spawn until ``/readyz`` answered
    200."""
    begun = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(path), *SERVE_ARGS],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        if cpus:
            # At once: the threads the server starts later inherit it.
            os.sched_setaffinity(proc.pid, cpus)
        line = proc.stdout.readline()
        check(line.startswith("serving "),
              f"repro serve did not start (said {line!r})")
        port = int(line.rsplit(":", 1)[1])
        with urllib.request.urlopen(
            f"http://{HOST}:{port}/readyz", timeout=loadgen.TIMEOUT
        ) as reply:
            check(reply.status == 200, f"/readyz answered {reply.status}")
    except BaseException:
        stop_server(proc)
        raise
    return proc, port, time.perf_counter() - begun


def stop_server(proc) -> None:
    """SIGTERM, then wait for the drain to end."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    proc.wait()
    proc.stdout.close()


def server_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process.  Not ``ru_maxrss``: a child's starts
    at the resident size of the process that forked it, which here is
    the load generator."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM for process {pid}")


def children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def check_lookups(path: Path, port: int, ips: list[str]) -> None:
    """``/ip/<ip>`` returns exactly the rounds the store holds."""
    with open_store(str(path), readonly=True) as store:
        for ip in ips:
            sample = loadgen.Sample("ip", f"/ip/{ip}", 0.0, 0.0)
            loadgen.fetch(HOST, port, sample)
            check(sample.ok and loadgen.well_formed(sample),
                  f"/ip/{ip}: bad response")
            served = [obs["round_id"] for obs in
                      json.loads(sample.body)["observations"]]
            stored = [row["round_id"] for row in
                      store.ip_history_rows(ip_to_int(ip))]
            check(served == stored,
                  f"/ip/{ip}: served rounds {served}, stored {stored}")


def _ms(values) -> list[float]:
    return [value * 1000.0 for value in values]


def serve(params: Params, import_s: float) -> Result:
    tracer = Tracer(params.trace)
    cycles = params.repeats(CYCLES)
    connections = os.cpu_count() or 1
    with scratch_dir() as tmp:
        path = tmp / "fixture.sqlite"
        fixture = fixture_in_child(path, params)
        with open_store(str(path), readonly=True) as store:
            round_ids = [info.round_id for info in store.rounds()]
            seen = sorted(set().union(
                *(store.responsive_ips(rid) for rid in round_ids)))
        mix = loadgen.PathMix(seen, round_ids, params.seed)
        schedule = loadgen.open_schedule(
            mix, rate=RATE, duration=OPEN_SECONDS * cycles, seed=params.seed)
        closed_paths = loadgen.closed_paths(mix, CLOSED_PATHS * cycles)

        # After the fixture, whose builder would inherit the mask.
        split = split_cpus()
        server_cpus = None
        if split:
            server_cpus, generator_cpus = split
            os.sched_setaffinity(0, generator_cpus)
        cpu_before = children_cpu_seconds()
        proc, port, ready_s = start_server(path, server_cpus)
        try:
            check_lookups(path, port, mix.ips[:CHECKED_IPS])
            opened, closed, in_flight_peak = [], [], 0
            open_p50s, closed_rates = [], []
            for cycle in range(cycles):
                due = [entry for entry in schedule
                       if cycle <= entry[0] / OPEN_SECONDS < cycle + 1]
                samples, peak = loadgen.run_open(
                    HOST, port, due, connections)
                opened += samples
                open_p50s.append(statistics.median(_ms(
                    s.latency for s in samples if s.status is not None)))
                in_flight_peak = max(in_flight_peak, peak)
                begun = time.perf_counter()
                samples = loadgen.run_closed(
                    HOST, port, closed_paths,
                    min(CLOSED_CLIENTS, connections), CLOSED_SECONDS,
                    start=cycle * CLOSED_PATHS)
                closed += samples
                closed_rates.append(
                    sum(s.ok for s in samples)
                    / (max(s.done for s in samples) - begun))
            rss = server_peak_rss_mb(proc.pid)
        finally:
            stop_server(proc)
        server_cpu_s = children_cpu_seconds() - cpu_before
        ready = [ready_s]
        for _ in range(SETUP_REPEATS):
            spare, _, seconds = start_server(path, server_cpus)
            stop_server(spare)
            ready.append(seconds)

        everything = opened + closed
        broken = [s.path for s in everything
                  if not s.error and not loadgen.well_formed(s)]
        check(not broken, f"malformed responses to {broken[:5]}")
        failed = sum(not s.ok for s in everything)
        within = sum(
            s.ok and s.latency <= LIMIT_S for s in opened) / len(opened)
        latencies = _ms(s.latency for s in opened if s.status is not None)
        lag = _ms(s.lag for s in opened)
        lag_p99 = percentile(lag, 99.0)

        per_layer = {}
        if tracer.enabled:
            per_layer = _layers(
                tracer, path, mix, opened, closed, server_cpu_s,
                lag_p99=lag_p99, in_flight_peak=in_flight_peak,
                p50=statistics.median(latencies),
            )
    named = {
        "setup_s": statistics.median(ready),
        "p50_ms": undisturbed(open_p50s),
        "within_limit_share": within,
        "closed_rps": undisturbed(closed_rates, better="higher"),
    }
    return Result(
        attempted=len(opened) + len(closed),
        failed=failed,
        end_to_end={
            "setup_s": named["setup_s"],
            "throughput_per_s": named["closed_rps"],
            "latency_ms": named["p50_ms"],
            "within_limit_share": within,
            "peak_rss_mb": rss,
            "db_bytes_per_record": fixture["db_bytes_per_record"],
        },
        named=named,
        per_layer=per_layer,
        timings={
            "open_latency_ms": summarize(latencies),
            "closed_latency_ms": summarize(
                _ms(s.latency for s in closed if s.status is not None)),
            "closed_rps": summarize(closed_rates),
        },
        counts={
            "records": fixture["records"],
            "loadgen.sent": len(opened),
        },
        meta={
            "fixture": fixture, "rate_rps": RATE,
            "cycles": cycles, "open_s": OPEN_SECONDS * cycles,
            "closed_s": CLOSED_SECONDS * cycles,
            "connections": connections,
            "server_cpus": sorted(server_cpus or []),
            "limit_ms": LIMIT_S * 1000.0,
            "lag_p99_ms": lag_p99,
            "generator_bound": lag_p99 > MAX_LAG_MS,
        },
    )


def _layers(tracer: Tracer, path: Path, mix, opened, closed,
            server_cpu_s: float, *, lag_p99: float, in_flight_peak: int,
            p50: float) -> dict:
    for index, sample in enumerate(opened):
        request = tracer.record(
            "request", sample.scheduled, sample.done,
            request=index, kind=sample.kind, status=sample.status)
        if sample.free > sample.scheduled:
            tracer.record("loadgen.queued", sample.scheduled, sample.free,
                          request)
        if sample.connected:
            tracer.record("loadgen.lag", sample.started - sample.lag,
                          sample.started, request)
            tracer.record("app.connect", sample.started, sample.connected,
                          request)
        if sample.first_byte:
            tracer.record("app.first_byte", sample.connected,
                          sample.first_byte, request)
            tracer.record("app.rest", sample.first_byte, sample.done,
                          request)
    tracer.write(OUT_DIR / "trace_serve.jsonl")

    answered = [s for s in opened if s.first_byte]
    by_kind = {
        kind: statistics.median(_ms(
            s.latency for s in answered if s.kind == kind))
        for kind in loadgen.KIND_MIX
    }
    out = layers.query_layers(path, {
        "ip": mix.ips[:layers.POINT_READS],
        "round": [str(rid) for rid in mix.round_ids],
    })
    total = sum(loadgen.KIND_MIX.values())
    in_queries = sum(
        loadgen.KIND_MIX[kind] / total * out[name] / 1000.0
        for kind, name in (
            ("ip", "queries.ip_history_us"),
            ("rounds", "queries.rounds_us"),
            ("round", "queries.round_detail_us"),
            ("clusters", "queries.cluster_aggregate_us"),
        )
    )
    latencies = _ms(s.latency for s in opened if s.status is not None)
    out.update({
        "app.connect_p50_ms": statistics.median(_ms(
            s.connected - s.started for s in answered)),
        "app.ttfb_p50_ms": statistics.median(_ms(
            s.first_byte - s.started for s in answered)),
        "app.p50_ms.ip": by_kind["ip"],
        "app.p50_ms.rounds": by_kind["rounds"],
        "app.p50_ms.round_detail": by_kind["round"],
        "app.p50_ms.clusters": by_kind["clusters"],
        "app.cpu_ms_per_req": server_cpu_s * 1000.0
        / (len(opened) + len(closed) + CHECKED_IPS + 1),
        "app.overhead_ms": p50 - in_queries,
        "loadgen.sent": len(opened),
        "loadgen.lag_p99_ms": lag_p99,
        "loadgen.p99_ms": percentile(latencies, 99.0),
        "loadgen.max_ms": max(latencies),
        "loadgen.inflight_peak": in_flight_peak,
        "loadgen.closed_p50_ms": statistics.median(_ms(
            s.latency for s in closed if s.status is not None)),
    })
    return out
