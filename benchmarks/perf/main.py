"""Command line of the benchmark (``run.py`` is its launcher).

Two ways in:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` runs one
  workload in this interpreter and prints, as its last line, the JSON
  object the benchmark contract asks for.
* ``run.py --seed N [--traced] [--smoke]`` runs every workload, each in
  its own fresh interpreter, prints every end-to-end metric by name
  with its unit and writes one result file; ``--traced`` repeats the
  workloads with spans on, adds the per-layer metrics and reports the
  tracing overhead as the difference between the two passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .common import (
    NOMINAL_SECONDS,
    OUT_DIR,
    PERF_DIR,
    REPO_ROOT,
    CheckFailed,
    Params,
    Result,
)

#: ISSUE 12's end-to-end metrics and their units.  A workload reports
#: those it measures under these names (``Result.named``); they are
#: what the all-workloads mode prints and what result files carry.
UNITS = {
    "setup_s": "s", "records_per_s": "records/s", "cold_round_s": "s",
    "workers2_records_per_s": "records/s", "report_s": "s",
    "cluster_s": "s", "p50_ms": "ms", "within_limit_share": "ratio",
    "closed_rps": "requests/s", "db_bytes_per_record": "bytes",
    "peak_rss_mb": "MB",
}
#: The benchmark contract has every workload report every end-to-end
#: metric of BENCHMARK.json, so those six names are slots: this is what
#: each workload puts in each (issue names first, where there is one).
DEFINITIONS = {
    "ingest_cpu": {
        "setup_s": "import + scenario build + store open + WhoWas "
                   "construction",
        "throughput_per_s": "records_per_s: better quartile over the warm "
                            "rounds of records written / run_round wall",
        "latency_ms": "cold_round_s: round 1, fresh interpreter, empty "
                      "store",
        "within_limit_share": "targets not dead-lettered / targets",
        "peak_rss_mb": "ru_maxrss of the ingesting interpreter",
        "db_bytes_per_record": "on-disk bytes of the closed store (with "
                               "WAL) / records",
    },
    "ingest_wait": {
        "setup_s": "import + scenario build + store open + WhoWas "
                   "construction",
        "throughput_per_s": "records_per_s: records / wall of the "
                            "in-process rounds at 20 ms per operation",
        "latency_ms": "records / workers2_records_per_s: the same round "
                      "on workers.count = 2, spawn and merge included",
        "within_limit_share": "targets not dead-lettered / targets",
        "peak_rss_mb": "ru_maxrss of the coordinating interpreter",
        "db_bytes_per_record": "on-disk bytes of the closed store / "
                               "records",
    },
    "analyze": {
        "setup_s": "import + read-only open of the fixture",
        "throughput_per_s": "corpus / cluster_s: synthetic fingerprints "
                            "clustered per second, better quartile",
        "latency_ms": "report_s: read-only open -> Dataset.from_store -> "
                      "cluster complete, better quartile",
        "within_limit_share": "page observations that landed in a "
                              "cluster / page observations",
        "peak_rss_mb": "ru_maxrss of the analysing interpreter",
        "db_bytes_per_record": "of the fixture it reads",
    },
    "serve": {
        "setup_s": "`repro serve` spawn until /readyz answers 200",
        "throughput_per_s": "closed_rps: 200s completed per second, "
                            "better quartile over the closed loops",
        "latency_ms": "p50_ms: open loops at 600 rps, scheduled send to "
                      "last byte, all responses; better quartile over "
                      "the loops' medians",
        "within_limit_share": "open loop: scheduled requests answered "
                              "200 within 25 ms / scheduled",
        "peak_rss_mb": "VmHWM of the server subprocess",
        "db_bytes_per_record": "of the fixture it serves",
    },
}
WORKLOADS = tuple(DEFINITIONS)
#: The timing the tracing overhead is taken on, per workload.
HEADLINE = {
    "ingest_cpu": "throughput_per_s", "ingest_wait": "throughput_per_s",
    "analyze": "latency_ms", "serve": "latency_ms",
}
#: ``--smoke``: (scale, seconds).
SMOKE = (0.1, 1.5)


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def environment(seed: int) -> dict:
    """Stamped into every result, so two results can be told apart."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout without git metadata
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "load_1min": load,
        # Flagged, not failed: timings taken on a busy machine are
        # still timings, but they should not set a baseline.
        "busy_at_start": load > nproc / 2,
    }


def load_workload(name: str):
    """Import the workload's module; returns its entry point and the
    seconds the import took (part of set-up)."""
    begun = time.perf_counter()
    if name in ("ingest_cpu", "ingest_wait"):
        from . import ingest as module
    elif name == "analyze":
        from . import analyze as module
    else:
        from . import serve as module
    return getattr(module, name), time.perf_counter() - begun


def contract_line(result: Result, spec: dict, trace: bool) -> str:
    """The last line of output: every end-to-end metric untraced,
    every per-layer metric traced (0 where this workload does not
    exercise the layer)."""
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        undeclared = set(result.per_layer) - set(units)
        if undeclared:
            raise CheckFailed(
                f"not in BENCHMARK.json: {sorted(undeclared)}")
        values = {name: result.per_layer.get(name, 0) for name in units}
    else:
        values = result.end_to_end
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = set(units) - set(values)
        if missing:
            raise CheckFailed(f"workload reported no {sorted(missing)}")
    return json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    })


def print_result(name: str, result: Result) -> None:
    for metric, value in result.named.items():
        print(f"{name:<12} {metric:<24} {value:>14.4f} {UNITS[metric]}")
    for timing, summary in result.timings.items():
        tail = ""
        if "tail" in summary:
            tail = f"  p{summary['tail_q']:g} {summary['tail']:.4f}"
        print(f"{name:<12} {timing:<24} median {summary['median']:.4f}"
              f"{tail}  n={summary['n']}")
    print(f"{name:<12} ops_attempted={result.attempted} "
          f"ops_failed={result.failed}")


def one_workload(args, spec: dict) -> int:
    params = Params(seed=args.seed, seconds=args.seconds, scale=args.scale,
                    trace=bool(args.trace))
    try:
        workload, import_s = load_workload(args.workload)
        result = workload(params, import_s)
        line = contract_line(result, spec, params.trace)
    except CheckFailed as exc:
        print(f"{args.workload}: check failed: {exc}", file=sys.stderr)
        return 1
    print_result(args.workload, result)
    if args.detail:
        detail = asdict(result)
        detail["meta"]["import_s"] = import_s
        detail["params"] = asdict(params)
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    print(line)
    return 0


def run_child(name: str, *, seed: int, seconds: float, scale: float = 1.0,
              trace: bool = False, echo: bool = True) -> dict | None:
    """One workload in a fresh interpreter; returns everything it
    measured, or None when it failed."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"detail-{os.getpid()}.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--scale", str(scale), "--trace", str(int(trace)),
         "--detail", str(detail)],
        stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        return None
    if echo:
        print("\n".join(lines[:-1]))
    out = json.loads(detail.read_text())
    detail.unlink()
    return out


def overhead_share(name: str, plain: dict, traced: dict) -> float:
    """(traced − untraced) / untraced of the workload's headline."""
    metric = HEADLINE[name]
    before = plain["end_to_end"][metric]
    after = traced["end_to_end"][metric]
    if metric == "throughput_per_s":  # a rate: slower is smaller
        return before / after - 1.0
    return after / before - 1.0


def all_workloads(args, spec: dict) -> int:
    env = environment(args.seed)
    if env["busy_at_start"]:
        print(f"note: 1-min load {env['load_1min']:.2f} exceeds "
              f"nproc/2 = {env['nproc'] / 2:g}; timings may be inflated",
              file=sys.stderr)
    result = {"environment": env, "seconds": args.seconds,
              "scale": args.scale, "workloads": {}}
    failed = []
    for name in WORKLOADS:
        shape = {"seed": args.seed, "seconds": args.seconds,
                 "scale": args.scale}
        plain = run_child(name, **shape)
        if plain is None:
            failed.append(name)
            continue
        entry = {"correct": True, **plain}
        if args.traced:
            traced = run_child(name, trace=True, echo=False, **shape)
            if traced is None:
                failed.append(name)
                continue
            entry["per_layer"] = {
                m["name"]: traced["per_layer"].get(m["name"], 0)
                for m in spec["per_layer"]
            }
            entry["per_layer"]["trace.overhead_share"] = overhead_share(
                name, plain, traced)
            entry["traced_end_to_end"] = traced["end_to_end"]
            entry["measured_layers"] = sorted(traced["per_layer"])
            for layer, value in sorted(traced["per_layer"].items()):
                print(f"{name:<12} {layer:<34} {value:>16.4f}")
            print(f"{name:<12} {'trace.overhead_share':<34} "
                  f"{entry['per_layer']['trace.overhead_share']:>16.4f}")
        result["workloads"][name] = entry
    out = Path(args.out) if args.out else (
        OUT_DIR / f"result_seed{args.seed}.json")
    out.write_text(json.dumps(result, indent=1))
    print(f"-> {out}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload here and print the "
                             "contract's result line")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="run length the rounds and repeats are "
                             f"sized for (sizes chosen at "
                             f"{NOMINAL_SECONDS:g})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: record spans and report "
                             "per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="all workloads: add a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="about a tenth of the size, for the "
                             "correctness checks only")
    parser.add_argument("--out", help="result file (all workloads)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--build-fixture", metavar="PATH",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.scale, args.seconds = SMOKE
    if args.build_fixture:
        from .ingest import build_fixture
        print(json.dumps(build_fixture(
            Path(args.build_fixture), args.seed, args.scale)))
        return 0
    if args.workload:
        return one_workload(args, spec)
    return all_workloads(args, spec)
