"""The ``analyze`` workload: time-to-report over a campaign store.

It uses the store the opposite way to ingest — full sequential scans
and row decode instead of commits — through the ``repro report`` path
(read-only open → ``Dataset.from_store`` → ``WebpageClusterer``).  On a
campaign the clustering itself is a few percent of that, so a second
phase clusters a synthetic fingerprint corpus where the LSH index and
the Hamming kernels do all the work.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

from repro.analysis import Dataset, WebpageClusterer
from repro.analysis.gap_statistic import cluster_by_threshold
from repro.core.simhash import HASH_BITS
from repro.core.store import open_store

from . import layers
from .common import (
    OUT_DIR,
    Params,
    Result,
    check,
    peak_rss_mb,
    scratch_dir,
    success_share,
    timed,
)
from .ingest import fixture_in_child
from .stats import undisturbed
from .tracing import Tracer

#: Reports at the nominal run length, each followed by
#: CLUSTERINGS_PER_REPORT synthetic clusterings: the two alternate so
#: that both sample the whole run (see serve.CYCLES), and the
#: clusterings are many and short because numpy's memory-bound kernels
#: feel a noisy neighbour most.
REPEATS = 4
CLUSTERINGS_PER_REPORT = 2
CORPUS = 50_000
THRESHOLD = 4
#: The indexed clustering must equal brute force on this prefix.
EXACT_PREFIX = 5_000


def synthetic_corpus(size: int, seed: int, *, revisions: int = 64,
                     max_flips: int = 3) -> list[int]:
    """WhoWas-shaped fingerprints: independent base pages, each seen as
    a run of revisions within *max_flips* bits of it — distinct
    deployments far apart, their revisions inside the threshold."""
    rng = random.Random(seed)
    hashes: list[int] = []
    while len(hashes) < size:
        base = rng.getrandbits(HASH_BITS)
        for _ in range(min(rng.randint(1, revisions), size - len(hashes))):
            value = base
            for position in rng.sample(range(HASH_BITS),
                                       rng.randint(0, max_flips)):
                value ^= 1 << position
            hashes.append(value)
    return hashes


def _canonical(clusters) -> list[tuple[int, ...]]:
    return sorted(tuple(sorted(members)) for members in clusters)


def report(path: Path, tracer: Tracer):
    """What ``repro report`` does before it prints."""
    with tracer.span("report"):
        with tracer.span("store.open_ro"):
            store = open_store(str(path), readonly=True)
        try:
            with tracer.span("dataset.load"):
                dataset = Dataset.from_store(store)
            with tracer.span("clustering.cluster"):
                result = WebpageClusterer().cluster(dataset)
        finally:
            store.close()
    return dataset, result


def check_assignment(dataset, result) -> int:
    """Every page observation lands in exactly one cluster (kept or
    cleaned away); returns the number that landed in none."""
    groups = list(result.clusters.values()) + list(result.removed.values())
    members = [key for cluster in groups for key in cluster.members]
    pages = {obs.key() for obs in dataset.observations() if obs.has_page}
    check(len(members) == len(set(members)),
          "a page observation sits in two clusters")
    check(set(members) <= pages, "a cluster holds an unknown observation")
    return len(pages) - len(members)


def analyze(params: Params, import_s: float) -> Result:
    tracer = Tracer(params.trace)
    repeats = params.repeats(REPEATS, least=2)
    with scratch_dir() as tmp:
        path = tmp / "fixture.sqlite"
        fixture = fixture_in_child(path, params)

        begun = time.perf_counter()
        corpus = synthetic_corpus(params.scaled(CORPUS), params.seed)
        corpus_gen_s = time.perf_counter() - begun
        opens, report_s, cluster_s = [], [], []
        for index in range(repeats):
            # Set-up: a read-only open of its own, before each report.
            spent, store = timed(open_store, str(path), readonly=True)
            opens.append(spent)
            store.close()
            spent, (dataset, result) = timed(report, path, tracer)
            report_s.append(spent)
            if index == 0:
                # Read before the synthetic index exists: it is far
                # bigger than a campaign and would hide what loading
                # one costs.  Then one clustering to warm up.
                rss = peak_rss_mb()
                cluster_by_threshold(corpus, THRESHOLD, exact=False)
            for _ in range(CLUSTERINGS_PER_REPORT):
                with tracer.span("lsh.cluster"):
                    spent, clusters = timed(
                        cluster_by_threshold, corpus, THRESHOLD,
                        exact=False)
                cluster_s.append(spent)
        rows = sum(1 for _ in dataset.observations())
        unassigned = check_assignment(dataset, result)
        prefix = corpus[:EXACT_PREFIX]
        check(
            _canonical(cluster_by_threshold(prefix, THRESHOLD, exact=False))
            == _canonical(cluster_by_threshold(prefix, THRESHOLD, exact=True)),
            "indexed clustering differs from brute force",
        )

        per_layer = {}
        if tracer.enabled:
            load_s = tracer.total("dataset.load") / repeats
            pages = sum(1 for o in dataset.observations() if o.has_page)
            per_layer = {
                "dataset.load_s": load_s,
                "dataset.rows": rows,
                "dataset.rows_per_s": rows / load_s,
                "clustering.total_s":
                    tracer.total("clustering.cluster") / repeats,
                "clustering.pages": pages,
                "clustering.clusters": len(result.clusters),
                "lsh.synthetic_clusters": len(clusters),
                "lsh.corpus_gen_s": corpus_gen_s,
                "lsh.cluster_s": statistics.median(cluster_s),
            }
            with open_store(str(path), readonly=True) as store:
                per_layer.update(layers.record_layers(store))
                ips = layers.sample_ips(store, 50)
            per_layer.update(layers.store_layers(path, tmp, ips))
            tracer.write(OUT_DIR / "trace_analyze.jsonl")
    setup_s = import_s + statistics.median(opens)
    report_q, cluster_q = undisturbed(report_s), undisturbed(cluster_s)
    return Result(
        attempted=rows,
        failed=unassigned,
        end_to_end={
            "setup_s": setup_s,
            "throughput_per_s": len(corpus) / cluster_q,
            "latency_ms": report_q * 1000.0,
            "within_limit_share": success_share(rows, unassigned),
            "peak_rss_mb": rss,
            "db_bytes_per_record": fixture["db_bytes_per_record"],
        },
        named={
            "setup_s": setup_s,
            "report_s": report_q,
            "cluster_s": cluster_q,
            "peak_rss_mb": rss,
        },
        per_layer=per_layer,
        timings={
            "report_s": {"n": repeats,
                         "median": statistics.median(report_s)},
            "cluster_s": {"n": len(cluster_s),
                          "median": statistics.median(cluster_s)},
        },
        counts={
            "records": fixture["records"],
            "clustering.clusters": len(result.clusters),
            "lsh.synthetic_clusters": len(clusters),
        },
        meta={"fixture": fixture, "corpus": len(corpus),
              "threshold": THRESHOLD, "repeats": repeats},
    )
