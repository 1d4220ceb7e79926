"""Run the benchmark many times on one commit and record how far its
own readings spread — the noise floor every bound is set from.

``python3 benchmarks/perf/noise.py --out A.json`` runs every workload,
each time in a fresh interpreter, once on each of seeds 1 … 10 (the
benchmark contract judges a metric by its spread over ten seeds) and
five times on seed 1 (ISSUE 12 sets a bound from repeats of one
command).  It writes a *run set*: the raw readings, the counts that
must repeat, per (workload, metric) the median and the spreads, and
the bound each metric's noise asks for.  ``compare.py`` takes two run
sets.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parents[1] / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

#: Seeds in the order they are run.  The repeats of seed 1 are spread
#: among the others, so that they do not all see the host in one mood.
ORDER = (1, 2, 3, 1, 4, 5, 1, 6, 7, 1, 8, 9, 1, 10)
#: No bound below this, none above the contract's ceiling; in between,
#: rounded up to a multiple of the first.
LEAST_BOUND, MOST_BOUND = 0.05, 0.25


def spread_table(runs: list[dict]) -> dict:
    """``{workload: {metric: {n, median, iqr_share, range_share,
    repeat_range_share}}}``: the first three over one run per seed,
    the last over the runs of the repeated seed."""
    from perf.stats import iqr_share, range_share

    across: dict = {}
    repeated: dict = {}
    for run in runs:
        for metric, value in run["metrics"].items():
            key = (run["workload"], metric)
            if run["repeat"] == 0:
                across.setdefault(key, []).append(value)
            if run["seed"] == ORDER[0]:
                repeated.setdefault(key, []).append(value)
    table: dict = {}
    for (workload, metric), values in across.items():
        table.setdefault(workload, {})[metric] = {
            "n": len(values),
            "median": statistics.median(values),
            "iqr_share": iqr_share(values) if len(values) > 1 else 0.0,
            "range_share": range_share(values),
            "repeat_range_share": range_share(repeated[workload, metric]),
        }
    return table


def bounds_from(table: dict) -> dict:
    """Per metric, over its workloads: max(5 %, 2 × the range of the
    repeated seed) as the issue has it, and no less than 3 × the
    quartile spread over seeds, which the contract wants below a third
    of the bound; rounded up to a multiple of 5 %, never above the
    contract's 25 %."""
    asked: dict = {}
    for metrics in table.values():
        for metric, row in metrics.items():
            asked[metric] = max(
                asked.get(metric, LEAST_BOUND),
                2.0 * row["repeat_range_share"], 3.0 * row["iqr_share"])
    return {
        metric: {
            "asked": value,
            "bound": min(MOST_BOUND, round(LEAST_BOUND * math.ceil(
                round(value / LEAST_BOUND, 9)), 2)),
        }
        for metric, value in asked.items()
    }


def main(argv=None) -> int:
    from perf.main import WORKLOADS, environment, load_spec, run_child

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = float(load_spec()["run_seconds"])

    env = environment(ORDER[0])  # the load before the runs add to it
    runs = []
    for position, seed in enumerate(ORDER):
        for workload in WORKLOADS:
            detail = run_child(workload, seed=seed, seconds=seconds,
                               echo=False)
            if detail is None:
                print(f"{workload} seed {seed}: failed", file=sys.stderr)
                return 1
            runs.append({
                "workload": workload, "seed": seed,
                "repeat": ORDER[:position].count(seed),
                "metrics": detail["end_to_end"],
                "counts": detail["counts"],
                "attempted": detail["attempted"],
                "failed": detail["failed"],
            })
            print(f"seed {seed:<3} {workload:<12} " + "  ".join(
                f"{name}={value:.4g}"
                for name, value in detail["end_to_end"].items()))
    table = spread_table(runs)
    bounds = bounds_from(table)
    Path(args.out).write_text(json.dumps({
        "environment": env,
        "seconds": seconds,
        "bounds": bounds,
        "spread": table,
        "runs": runs,
    }, indent=1))
    for workload, metrics in table.items():
        for metric, row in metrics.items():
            print(f"{workload:<12} {metric:<20} median {row['median']:<12.5g}"
                  f" iqr {row['iqr_share']:.3f}  range {row['range_share']:.3f}"
                  f"  repeats {row['repeat_range_share']:.3f}")
    for metric, row in bounds.items():
        print(f"bound {metric:<20} {row['bound']:.2f}"
              f" (noise asks for {row['asked']:.2f})")
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
