"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudsim.instances import IpPool
from repro.core.records import (
    FetchResult,
    FetchStatus,
    PageFeatures,
    ProbeOutcome,
    ProbeStatus,
    RoundRecord,
)
from repro.core.store import MeasurementStore, bad_bodies, shard_checksum
from repro.core.store.base import encode_shard
from _fakes import write_round
from test_providers import free_addresses

# ---------------------------------------------------------------------------
# strategies

_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                           exclude_characters="#\n"),
    min_size=0, max_size=40,
)

_ports = st.frozensets(st.sampled_from([22, 80, 443]), min_size=1)


@st.composite
def round_records(draw):
    ip = draw(st.integers(1, 2**32 - 1))
    ports = draw(_ports)
    has_body = draw(st.booleans())
    body = draw(_text) + "x" if has_body else None
    features = None
    if has_body:
        features = PageFeatures(
            title=draw(_text) or "unknown",
            server=draw(_text) or "unknown",
            keywords=draw(_text) or "unknown",
            simhash=draw(st.integers(0, 2**96 - 1)),
            html_length=len(body),
        )
    return RoundRecord(
        ip=ip,
        round_id=draw(st.integers(1, 99)),
        timestamp=draw(st.integers(0, 365)),
        probe=ProbeOutcome(ip=ip, status=ProbeStatus.RESPONSIVE,
                           open_ports=ports),
        fetch=FetchResult(
            ip=ip,
            status=FetchStatus.OK if has_body else FetchStatus.ERROR,
            url=f"http://host-{ip}/",
            status_code=draw(st.sampled_from([200, 301, 404, 500, None])),
            headers={"Content-Type": "text/html"} if has_body else {},
            body=body,
            error=None if has_body else "connection reset",
        ),
        features=features,
        ssh_banner=draw(st.one_of(st.none(),
                                  st.just("SSH-2.0-OpenSSH_5.9"))),
    )


# Any text sqlite stores: non-ASCII included (surrogates excluded).
_any_text = st.text(max_size=30)


@st.composite
def stored_records(draw, ip):
    """A record of round 1 with arbitrary text in every column: an
    empty or absent body, a None status, no features, several headers."""
    body = draw(st.one_of(st.none(), st.just(""), _any_text))
    features = draw(st.one_of(st.none(), st.builds(
        PageFeatures, title=_any_text, description=_any_text,
        server=_any_text, simhash=st.integers(0, 2**96 - 1),
        html_length=st.integers(0, 2**31),
    )))
    return RoundRecord(
        ip=ip, round_id=1, timestamp=0,
        probe=ProbeOutcome(ip=ip, status=ProbeStatus.RESPONSIVE,
                           open_ports=draw(_ports)),
        fetch=FetchResult(
            ip=ip,
            status=draw(st.sampled_from(list(FetchStatus))),
            url=draw(_any_text),
            status_code=draw(st.sampled_from([200, 404, None])),
            headers=draw(st.dictionaries(_any_text, _any_text, max_size=4)),
            body=body,
            error=draw(st.one_of(st.none(), _any_text)),
        ),
        features=features,
        ssh_banner=draw(st.one_of(st.none(), _any_text)),
    )


class TestTupleChecksum:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 2**32 - 1), min_size=1, max_size=6,
                    unique=True).flatmap(
        lambda ips: st.tuples(*(stored_records(ip) for ip in ips))))
    def test_written_and_read_back_tuples_hash_alike(self, records):
        rows, bodies = encode_shard(records)
        store = MeasurementStore()
        store.begin_round(1, 0, len(records))
        store.write_shard(1, 0, records)
        stored, stored_bodies = store.shard_rows(1, 0)
        assert shard_checksum(stored) == shard_checksum(rows) \
            == store.shard_journal(1)[0].checksum
        assert stored_bodies == bodies and not bad_bodies(stored_bodies)
        store.finalize_round(1)
        assert store.verify_round(1).ok


class TestRecordRoundTrip:
    @settings(max_examples=60)
    @given(round_records())
    def test_to_row_from_row_identity(self, record):
        restored = RoundRecord.from_row(record.to_row())
        assert restored.ip == record.ip
        assert restored.round_id == record.round_id
        assert restored.timestamp == record.timestamp
        assert restored.probe == record.probe
        assert restored.fetch.status == record.fetch.status
        assert restored.fetch.status_code == record.fetch.status_code
        assert restored.fetch.body == record.fetch.body
        assert restored.features == record.features
        assert restored.ssh_banner == record.ssh_banner

    @settings(max_examples=20)
    @given(st.lists(round_records(), min_size=1, max_size=10,
                    unique_by=lambda r: r.ip))
    def test_store_round_trip(self, records):
        normalised = [
            RoundRecord(
                ip=r.ip, round_id=1, timestamp=0, probe=r.probe,
                fetch=r.fetch, features=r.features, ssh_banner=r.ssh_banner,
            )
            for r in records
        ]
        store = MeasurementStore()
        write_round(store, 1, 0, 100, normalised)
        restored = {r.ip: r for r in store.records(1)}
        assert set(restored) == {r.ip for r in normalised}
        for record in normalised:
            assert restored[record.ip].features == record.features
            assert restored[record.ip].probe.open_ports == \
                record.probe.open_ports
        store.close()


class TestIpPoolProperties:
    @settings(max_examples=40)
    @given(
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40,
                 unique=True),
        st.lists(st.booleans(), max_size=60),
        st.integers(0, 2**31),
    )
    def test_conservation(self, addresses, operations, seed):
        """Acquire/release never loses, duplicates, or invents IPs."""
        pool = IpPool({"classic": list(addresses)}, random.Random(seed))
        held: set[int] = set()
        for acquire in operations:
            if acquire:
                address = pool.acquire("classic")
                if address is not None:
                    assert address not in held
                    assert address in addresses
                    held.add(address)
            elif held:
                address = held.pop()
                pool.release(address)
            assert free_addresses(pool, "classic") == set(addresses) - held

    @settings(max_examples=20)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20,
                    unique=True))
    def test_exhaustion_then_refill(self, addresses):
        pool = IpPool({"classic": list(addresses)}, random.Random(0))
        taken = [pool.acquire("classic") for _ in addresses]
        assert sorted(taken) == sorted(addresses)
        assert pool.acquire("classic") is None
        for address in taken:
            pool.release(address)
        assert free_addresses(pool, "classic") == set(addresses)
