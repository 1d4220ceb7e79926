"""Tests of the benchmark harness itself.

Not part of tier-1 collection (``testpaths = ["tests"]``); run with
``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from repro.cloudsim.addressing import ip_to_int

from perf import compare, loadgen, stats
from perf.tracing import Span, Tracer, self_time

PERF_DIR = Path(__file__).resolve().parent
SPEC = json.loads((PERF_DIR.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- the load is a pure function of the seed ---------------------------

SEEN = list(range(0x36000000, 0x36000000 + 5000, 3))
ROUNDS = [1, 2, 3, 4]


def _schedule(seed: int):
    mix = loadgen.PathMix(SEEN, ROUNDS, seed)
    return (loadgen.open_schedule(mix, rate=300.0, duration=2.0, seed=seed),
            loadgen.closed_paths(mix, 64))


def test_schedule_and_paths_depend_only_on_seed():
    assert _schedule(7) == _schedule(7)
    assert _schedule(7) != _schedule(8)


def test_path_mix_shape():
    schedule, _ = _schedule(7)
    kinds = [kind for _, kind, _ in schedule]
    share = kinds.count("ip") / len(kinds)
    assert 0.6 < share < 0.8
    assert [offset for offset, _, _ in schedule] == sorted(
        offset for offset, _, _ in schedule)
    mix = loadgen.PathMix(SEEN, ROUNDS, 7)
    assert len(mix.ips) == 2000
    seen = set(SEEN)
    assert sum(ip_to_int(ip) not in seen for ip in mix.ips) == 400
    lookups = [mix.path("ip") for _ in range(4000)]
    # Zipf(1.0): the most popular key is asked for far more often than
    # a uniform draw over 2000 keys would (2 in 4000).
    top = max(lookups.count(path) for path in set(lookups))
    assert top > 200


# -- self time ----------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    parent = Span(0, "parent", 0.0, 10.0)
    children = [
        Span(1, "a", 1.0, 4.0, parent=0),
        Span(2, "b", 3.0, 6.0, parent=0),    # overlaps a for 1 s
        Span(3, "c", 8.0, 12.0, parent=0),   # runs past the parent
        Span(4, "d", 4.5, 5.0, parent=0),    # inside b
    ]
    # covered: [1, 6] and [8, 10] -> 7 s of 10
    assert self_time(parent, children) == pytest.approx(3.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_tracer_parents_counts_and_self_total():
    ticks = iter(range(100))
    tracer = Tracer(True, clock=lambda: float(next(ticks)))
    with tracer.span("round", round=3) as outer:
        with tracer.span("scan"):
            tracer.add("probe", 0.5)
        tracer.add("probe", 0.25)
    scan = tracer.named("scan")[0]
    assert scan.parent == outer.id and scan.ids == {"round": 3}
    assert tracer.count("probe") == 2
    assert tracer.seconds("probe<scan") == 0.5
    assert tracer.seconds("probe<round") == 0.25
    # round spans ticks 0..3, scan 1..2
    assert tracer.total("round") == 3.0
    assert tracer.self_total("round") == 2.0


def test_disabled_tracer_wraps_nothing():
    class Layer:
        def call(self):
            return 1

    layer = Layer()
    tracer = Tracer(False)
    tracer.wrap(layer, "call", "layer.call")
    assert "call" not in vars(layer)
    with tracer.span("x") as span:
        assert span is None
    assert tracer.spans == []


# -- percentiles --------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None),      # p50 would have only 9.5 beyond
    (20, 50.0),
    (39, 50.0),
    (40, 75.0),
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    tail = stats.tail_percentile(list(range(n)))
    assert (tail[0] if tail else None) == expected


def test_summarize_reports_median_tail_and_n():
    summary = stats.summarize([float(v) for v in range(1, 101)])
    assert summary == {"n": 100, "median": 50.5, "tail_q": 90.0,
                       "tail": 90.0}


def test_undisturbed_is_the_better_quartile_and_stays_in_range():
    walls = [2.0, 1.0, 4.0, 3.0]
    assert stats.undisturbed(walls) == 1.75
    assert stats.undisturbed(walls, better="higher") == 3.25
    assert stats.undisturbed([1.0, 2.0]) == 1.25
    assert stats.undisturbed(iter([5.0])) == 5.0
    # a slowed unit moves it less than it moves the median
    slowed = [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
    assert stats.undisturbed(slowed) == 1.0


# -- compare ------------------------------------------------------------


def _verdict(a, b, better="lower", bound=0.10):
    return compare.verdict(a, b, better=better, bound=bound)["verdict"]


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert _verdict(steady, steady) == "unchanged"
    assert _verdict(steady, [v * 1.2 for v in steady]) == "regressed"
    assert _verdict(steady, [v * 0.8 for v in steady]) == "better"
    assert _verdict(steady, [v * 0.8 for v in steady],
                    better="higher") == "regressed"
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert _verdict(noisy, [v * 1.05 for v in noisy]) == "unresolved"
    # wide spread, but every run of B beats every run of A
    assert _verdict(noisy, [v * 0.4 for v in noisy]) == "better"
    # medians apart by more than A's spread, but B wins only 3 pairs of 5
    mixed = [97.0, 97.5, 96.5, 101.5, 100.5]
    assert _verdict(steady, mixed) == "unchanged"


def _run_set(bytes_by_seed: dict, records: int = 100) -> dict:
    return {"runs": [
        {"workload": "ingest_cpu", "seed": seed, "repeat": 0,
         "metrics": {"db_bytes_per_record": value},
         "counts": {"records": records}}
        for seed, value in bytes_by_seed.items()
    ] + [  # a repeat of the first seed: not one more seed
        {"workload": "ingest_cpu", "seed": 1, "repeat": 1,
         "metrics": {"db_bytes_per_record": 9999.0},
         "counts": {"records": records}},
    ]}


def test_compare_judges_exact_metrics_seed_by_seed():
    """Seeds differ by 10 % here, a change may cost 5 % on any of them."""
    parent = _run_set({1: 2000.0, 2: 2200.0, 3: 2100.0})

    def word(change):
        (row,) = compare.compare(parent, _run_set(change), SPEC)
        return row["verdict"]

    assert word({1: 2000.0, 2: 2200.0, 3: 2100.0}) == "unchanged"
    assert word({1: 2000.0, 2: 2200.0, 3: 2250.0}) == "regressed"
    assert word({1: 1990.0, 2: 2190.0, 3: 2090.0}) == "better"
    assert word({1: 1990.0, 2: 2201.0, 3: 2090.0}) == "unchanged"


def test_compare_fails_on_a_changed_count(tmp_path, capsys):
    same = {1: 2000.0, 2: 2200.0}
    paths = []
    for name, records in (("a", 100), ("b", 100), ("c", 101)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(_run_set(same, records)))
    a, b, c = map(str, paths)
    assert compare.main([a, b]) == 0
    assert compare.main([a, c]) == 1
    assert "count changed: ingest_cpu seed 1 records: 100 -> 101" in (
        capsys.readouterr().out)


# -- the benchmark against its own declaration --------------------------


def test_declaration_is_consistent():
    from perf.main import DEFINITIONS, UNITS

    assert list(DEFINITIONS) == WORKLOADS
    assert len(UNITS) == 11  # the issue's end-to-end metrics
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    for workload in WORKLOADS:
        assert list(DEFINITIONS[workload]) == end_to_end
    names = end_to_end + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_smoke_passes_and_matches_the_declaration(tmp_path):
    """``--smoke --traced``: every workload at about a tenth of the
    size, correctness checks on, both passes."""
    from perf.main import UNITS

    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--traced",
         "--seed", "3", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(out.read_text())
    assert list(result["workloads"]) == WORKLOADS
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    measured, named = set(), set()
    for name, entry in result["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["named"]) <= set(UNITS), name
        named |= set(entry["named"])
        assert all(value > 0 for value in entry["end_to_end"].values()), name
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert set(entry["per_layer"]) == per_layer | {
            "trace.overhead_share"}, name
        measured |= set(entry["measured_layers"])
        assert (PERF_DIR / "out" / f"trace_{name}.jsonl").stat().st_size
    # every declared per-layer metric is measured by some workload,
    # every end-to-end metric of the issue reported by one
    assert measured == per_layer
    assert named == set(UNITS)
    for stamp in ("nproc", "python", "numpy", "sqlite", "commit",
                  "platform", "load_1min", "seed"):
        assert stamp in result["environment"]


def test_contract_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--workload", "analyze",
         "--seed", "3", "--seconds", "1.5", "--scale", "0.1",
         "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_stop_children_leaves_no_process():
    """The resource tracker ``workers.count = 2`` brings with it, and a
    child nobody waited for, are both gone when it returns."""
    script = (
        "import subprocess, sys\n"
        "from multiprocessing import resource_tracker\n"
        "from perf.common import child_pids, stop_children\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        "before = len(child_pids())\n"
        "stop_children()\n"
        "print(before, len(child_pids()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=30, env={**os.environ, "PYTHONPATH": str(PERF_DIR.parent)},
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["2", "0"]
