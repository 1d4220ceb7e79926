"""Projected-scan speed of each storage engine over one campaign.

ROADMAP item 4's engine rule compares the engines on the analysis read
path.  This replays the shards of a campaign store into a fresh store
of each engine and reads it back three ways: the full-row ``records()``
scan, the ``columns()`` scan of the columns an ``Observation`` is made
of, and the whole report path (read-only open → ``Dataset.from_store``
→ ``WebpageClusterer().cluster``).  Prints one JSON object; each timing
is the median of ``--repeats`` reads.

Usage (the numbers in DESIGN.md, "Analysis read path")::

    python3 benchmarks/perf/run.py --build-fixture /tmp/f.sqlite --seed 7 --scale 1.0
    PYTHONPATH=src python3 scripts/projected_scan.py /tmp/f.sqlite
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.analysis import Dataset, WebpageClusterer
from repro.analysis.dataset import _OBSERVATION_COLUMNS
from repro.core.store import BACKENDS, open_store


def replay(source, engine: str, path: Path) -> int:
    """Write every shard of *source* into a fresh *engine* store."""
    rows = 0
    with open_store(str(path), backend=engine) as store:
        for info in source.rounds():
            store.begin_round(
                info.round_id, info.timestamp, info.targets_probed,
                shard_size=info.shard_size,
            )
            for entry in source.shard_journal(info.round_id):
                records = source.shard_records(
                    info.round_id, entry.shard_index)
                store.write_shard(info.round_id, entry.shard_index, records)
                rows += len(records)
            store.finalize_round(info.round_id)
    return rows


def median_seconds(read, path: Path, repeats: int) -> float:
    """Median wall-clock of ``read(store)`` on a store opened anew (and
    so with cold engine caches) for every repeat; the open is timed."""
    samples = []
    for _ in range(repeats):
        begun = time.perf_counter()
        with open_store(str(path), readonly=True) as store:
            read(store)
        samples.append(time.perf_counter() - begun)
    return statistics.median(samples)


def scan_records(store) -> None:
    for info in store.rounds():
        for _ in store.records(info.round_id):
            pass


def scan_columns(store) -> None:
    for info in store.rounds():
        for _ in store.columns(info.round_id, _OBSERVATION_COLUMNS):
            pass


def report(store) -> None:
    WebpageClusterer().cluster(Dataset.from_store(store))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", help="campaign store to replay")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    out = {}
    with tempfile.TemporaryDirectory() as tmp, \
            open_store(args.store, readonly=True) as source:
        for engine in sorted(BACKENDS):
            path = Path(tmp) / f"replay.{engine}"
            rows = replay(source, engine, path)
            out[engine] = {"rows": rows}
            for name, read in (("records", scan_records),
                               ("columns19", scan_columns),
                               ("report", report)):
                seconds = median_seconds(read, path, args.repeats)
                out[engine][f"{name}_s"] = round(seconds, 4)
                out[engine][f"{name}_rows_per_s"] = round(rows / seconds)
    print(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
