"""Compare two run sets (``noise.py --out``): A is the parent, B the
change.  ``python3 benchmarks/perf/compare.py A.json B.json``

One row per (workload, end-to-end metric), over one run per seed: both
medians, how much worse B reads as a share of A's median, the bound
BENCHMARK.json fixes for the metric, and a verdict —

* ``regressed``: B's median is worse than A's by more than the bound;
* ``unresolved``: the run-to-run spread (IQR / median) of either side
  is wider than the bound, so neither "unchanged" nor "regressed" can
  be told — unless every run of B reads better than every run of A;
* ``better``: every run of B beats every run of A, or B wins at least
  nine tenths of the same-seed pairs and the medians differ by more
  than the spread between A's own runs;
* ``unchanged``: none of the above.

A metric that repeats exactly for one seed (``db_bytes_per_record``)
differs between seeds by more than a change is allowed to cost, so it
is judged seed by seed: ``regressed`` when any seed reads more than 5 %
worse, ``better`` when every seed reads better.  Counts that must not
change at all are listed when they do.  Exits 1 when a row regressed
or a count changed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parents[1] / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


#: End-to-end metrics that repeat exactly for one seed, and the share
#: by which one may worsen on any seed.
EXACT = {"db_bytes_per_record": 0.05}


def readings(run_set: dict) -> dict:
    """``{(workload, metric): {seed: value}}``, first run of each seed."""
    out: dict = {}
    for run in run_set["runs"]:
        if run["repeat"]:
            continue
        for metric, value in run["metrics"].items():
            out.setdefault((run["workload"], metric), {})[run["seed"]] = value
    return out


def verdict(a: list[float], b: list[float], *, better: str,
            bound: float) -> dict:
    """Judge one (workload, metric) pairing; *a* and *b* hold the
    same seeds in the same order."""
    from perf.stats import iqr_share

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = sign * (med_b - med_a) / abs(med_a)
    spread_a = iqr_share(a) if len(a) > 1 else 0.0
    spread_b = iqr_share(b) if len(b) > 1 else 0.0
    if max(b) < min(a) if better == "lower" else min(b) > max(a):
        word = "better"  # every run of B beats every run of A
    elif max(spread_a, spread_b) > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    elif wins >= 0.9 * (wins + losses) and -worse > spread_a:
        word = "better"
    else:
        word = "unchanged"
    return {"median_a": med_a, "median_b": med_b, "worse_share": worse,
            "spread_a": spread_a, "spread_b": spread_b, "bound": bound,
            "verdict": word}


def exact_verdict(a: list[float], b: list[float], *, better: str,
                  bound: float) -> dict:
    """Judge a metric that repeats exactly for one seed, pair by pair."""
    sign = 1.0 if better == "lower" else -1.0
    worse = [sign * (y - x) / abs(x) for x, y in zip(a, b)]
    if max(worse) > bound:
        word = "regressed"
    elif max(worse) < 0:
        word = "better"
    else:
        word = "unchanged"
    return {"median_a": statistics.median(a),
            "median_b": statistics.median(b), "worse_share": max(worse),
            "spread_a": 0.0, "spread_b": 0.0, "bound": bound,
            "verdict": word}


def compare(set_a: dict, set_b: dict, spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a, b = readings(set_a), readings(set_b)
    rows = []
    for key in sorted(a.keys() & b.keys()):
        workload, metric = key
        seeds = sorted(a[key].keys() & b[key].keys())
        judge, bound = verdict, metrics[metric]["bound"]
        if metric in EXACT:
            judge, bound = exact_verdict, EXACT[metric]
        rows.append({
            "workload": workload, "metric": metric,
            **judge([a[key][seed] for seed in seeds],
                    [b[key][seed] for seed in seeds],
                    better=metrics[metric]["better"], bound=bound),
        })
    return rows


def changed_counts(set_a: dict, set_b: dict) -> list[str]:
    """Counts that differ between the two sets for the same seed."""
    def keyed(run_set):
        return {(run["workload"], run["seed"]): run["counts"]
                for run in run_set["runs"] if not run["repeat"]}

    a, b = keyed(set_a), keyed(set_b)
    return [
        f"{workload} seed {seed} {name}: {a[workload, seed][name]} -> "
        f"{b[workload, seed].get(name)}"
        for workload, seed in sorted(a.keys() & b.keys())
        for name in a[workload, seed]
        if a[workload, seed][name] != b[workload, seed].get(name)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    spec = json.loads(
        (HERE.parents[1] / "BENCHMARK.json").read_text())
    set_a = json.loads(Path(args.a).read_text())
    set_b = json.loads(Path(args.b).read_text())
    rows = compare(set_a, set_b, spec)
    print(f"{'workload':<12} {'metric':<20} {'median A':>12} {'median B':>12}"
          f" {'worse':>8} {'bound':>6} {'spread A/B':>13}  verdict")
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<20} "
              f"{row['median_a']:>12.5g} {row['median_b']:>12.5g} "
              f"{row['worse_share']:>+8.1%} {row['bound']:>6.0%} "
              f"{row['spread_a']:>6.1%}/{row['spread_b']:<6.1%}  "
              f"{row['verdict']}")
    changed = changed_counts(set_a, set_b)
    for line in changed:
        print(f"count changed: {line}")
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
