"""Isolated per-layer drivers: one layer's public functions called
alone, on data a workload captured, so a change to that layer shows
here first and its share of an end-to-end number can be bounded.

Every driver runs in traced runs only and outside the timed window.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from pathlib import Path

from repro.core.config import ServeConfig
from repro.core.features import FeatureExtractor
from repro.core.records import RoundRecord
from repro.core.simhash import simhash, tokenize
from repro.core.store import ShardPayload, open_store, shard_checksum
from repro.serve import (
    AdmissionController,
    QueryService,
    ReadPool,
    TokenBucket,
)

from .common import disk_bytes, timed, us_per_item

ENGINES = ("sqlite", "columnar")
#: Point reads per isolated measurement.
POINT_READS = 400


def page_layers(fetches: list) -> dict:
    """``features.*`` / ``simhash.*`` over one captured shard's pages,
    without the memo, so every page pays full price."""
    if not fetches:
        return {}
    bodies = [fetch.body for fetch in fetches if fetch.body]
    extractor = FeatureExtractor(memoize=False)
    return {
        "features.isolated_us_per_page": us_per_item(
            extractor.extract, fetches),
        "simhash.isolated_us_per_page": us_per_item(simhash, bodies),
        "simhash.tokens_per_page": statistics.mean(
            len(tokenize(body)) for body in bodies
        ),
    }


def record_layers(store) -> dict:
    """``records.*``: row encode / decode over one committed shard."""
    round_id = store.rounds()[0].round_id
    records = store.shard_records(round_id, 0)
    rows = [record.to_row() for record in records]
    return {
        "records.to_row_us": us_per_item(RoundRecord.to_row, records),
        "records.from_row_us": us_per_item(RoundRecord.from_row, rows),
    }


def _replay(source, engine: str, path: Path) -> tuple[float, int]:
    """Write every shard of *source* into a fresh *engine* store the
    way the pipeline's writer does; returns (write seconds, rows)."""
    seconds = 0.0
    rows = 0
    with open_store(str(path), backend=engine) as store:
        for info in source.rounds():
            payloads = [
                ShardPayload(
                    entry.shard_index,
                    tuple(source.shard_records(
                        info.round_id, entry.shard_index)),
                    errors=entry.errors, operations=entry.operations,
                )
                for entry in source.shard_journal(info.round_id)
            ]
            store.begin_round(
                info.round_id, info.timestamp, info.targets_probed,
                shard_size=info.shard_size,
            )
            for payload in payloads:
                spent, _ = timed(store.write_shards, info.round_id, [payload])
                seconds += spent
                rows += len(payload.records)
            store.finalize_round(info.round_id)
    return seconds, rows


def store_layers(fixture: Path, tmp: Path, sample_ips: list[int]) -> dict:
    """``store.E.*``: replay the fixture's shards into a fresh store of
    each engine, then read it back every way the platform does.  Write
    speed, read speed and space are reported together because they
    trade against each other."""
    out = {}
    with open_store(str(fixture), readonly=True) as source:
        first = source.rounds()[0].round_id
        rows = [r.to_row() for r in source.shard_records(first, 0)]
        out["store.checksum_us_per_row"] = statistics.median(
            timed(shard_checksum, rows)[0] / len(rows) * 1e6
            for _ in range(3)
        )
        for engine in ENGINES:
            path = tmp / f"replay.{engine}"
            write_s, written = _replay(source, engine, path)
            prefix = f"store.{engine}."
            out[prefix + "write_rows_per_s"] = written / write_s
            out[prefix + "bytes_per_row"] = disk_bytes(path) / written
            out.update(_read_layers(prefix, engine, path, sample_ips))
    return out


def _read_layers(prefix: str, engine: str, path: Path,
                 sample_ips: list[int]) -> dict:
    out = {}
    opens = []
    for _ in range(5):
        spent, store = timed(open_store, str(path), readonly=True)
        opens.append(spent * 1000.0)
        store.close()
    out[prefix + "open_ro_ms"] = statistics.median(opens)
    with open_store(str(path), readonly=True) as store:
        round_ids = [info.round_id for info in store.rounds()]
        begun = time.perf_counter()
        scanned = sum(1 for rid in round_ids for _ in store.records(rid))
        out[prefix + "scan_rows_per_s"] = scanned / (
            time.perf_counter() - begun)
        reads = (sample_ips * POINT_READS)[:POINT_READS]
        out[prefix + "ip_history_us"] = us_per_item(
            store.ip_history_rows, reads)
        many = (round_ids * POINT_READS)[:POINT_READS]
        out[prefix + "round_stats_us"] = us_per_item(store.round_stats, many)
        out[prefix + "aggregate_us"] = us_per_item(
            lambda rid: store.aggregate_column(rid, "server"), many)
        out[prefix + "verify_s"] = sum(
            timed(store.verify_round, rid)[0] for rid in round_ids)
    with open_store(str(path), backend=engine) as store:
        out[prefix + "rebuild_views_s"] = timed(store.rebuild_views)[0]
    return out


def query_layers(fixture: Path, paths: dict[str, list[str]]) -> dict:
    """``queries.*`` / ``resilience.admit_us``: the serve layer's read
    API over a ``ReadPool``, in this process and without HTTP, with the
    product's pool size and admission opened up."""
    config = ServeConfig()

    async def drive() -> dict:
        pool = ReadPool(
            lambda: open_store(str(fixture), readonly=True), config.readers)
        await pool.start()
        service = QueryService(pool)
        admission = AdmissionController(
            TokenBucket(1e9, 1e9), queue_limit=config.accept_queue,
            retry_after_base=config.retry_after_base,
            retry_after_max=config.retry_after_max,
        )
        far = time.monotonic() + 3600.0

        async def each(call, args) -> float:
            samples = []
            for arg in (args * POINT_READS)[:POINT_READS]:
                begun = time.perf_counter()
                await call(arg)
                samples.append((time.perf_counter() - begun) * 1e6)
            return statistics.median(samples)

        try:
            return {
                "queries.ip_history_us": await each(
                    lambda ip: service.ip_history(ip, far), paths["ip"]),
                "queries.rounds_us": await each(
                    lambda _: service.rounds(far), [None]),
                "queries.round_detail_us": await each(
                    lambda rid: service.round_detail(rid, far),
                    paths["round"]),
                "queries.cluster_aggregate_us": await each(
                    lambda rid: service.cluster_aggregate(
                        rid, far, column="server"),
                    paths["round"]),
                "resilience.admit_us": await each(
                    lambda _: admission.admit(far), [None]),
            }
        finally:
            pool.close()

    return asyncio.run(drive())


def sample_ips(store, count: int) -> list[int]:
    """IPs for point reads: responsive in the last round, in address
    order (a pure function of the store)."""
    last = store.rounds()[-1].round_id
    return sorted(store.responsive_ips(last))[:count]
