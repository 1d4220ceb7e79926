"""Tests for pipeline record types and their persistence round-trip."""

from __future__ import annotations

from repro.core.records import (
    FetchResult,
    FetchStatus,
    PageFeatures,
    Port,
    ProbeOutcome,
    ProbeStatus,
    RoundRecord,
    is_available,
    port_profile_of,
    status_class_of,
)


def outcome(ports) -> ProbeOutcome:
    status = ProbeStatus.RESPONSIVE if ports else ProbeStatus.UNRESPONSIVE
    return ProbeOutcome(ip=1, status=status, open_ports=frozenset(ports))


class TestProbeOutcome:
    def test_port_profiles(self):
        def profile(ports):
            return port_profile_of(outcome(ports).open_ports)

        assert profile({80}) == "80-only"
        assert profile({443}) == "443-only"
        assert profile({80, 443}) == "80&443"
        assert profile({22}) == "22-only"
        assert profile({80, 22}) == "80-only"
        assert profile(set()) == "none"

    def test_scheme_prefers_http(self):
        """§4: http:// when port 80 was open (even alongside 443)."""
        assert outcome({80, 443}).scheme == "http"
        assert outcome({80}).scheme == "http"
        assert outcome({443}).scheme == "https"
        assert outcome({22}).scheme is None

    def test_wants_fetch(self):
        assert outcome({80}).wants_fetch
        assert outcome({443}).wants_fetch
        assert not outcome({22}).wants_fetch

    def test_skipped_not_responsive(self):
        skipped = ProbeOutcome(ip=1, status=ProbeStatus.SKIPPED)
        assert not skipped.responsive


def available(result: FetchResult) -> bool:
    return is_available(result.status.value, result.status_code)


class TestFetchResult:
    def test_available_requires_response(self):
        ok = FetchResult(ip=1, status=FetchStatus.OK, status_code=404)
        assert available(ok)
        error = FetchResult(ip=1, status=FetchStatus.ERROR, error="timeout")
        assert not available(error)
        robots = FetchResult(ip=1, status=FetchStatus.ROBOTS_DISALLOWED)
        assert not available(robots)

    def test_status_classes(self):
        def result(code):
            return FetchResult(ip=1, status=FetchStatus.OK, status_code=code)

        assert status_class_of(result(200).status_code) == "200"
        assert status_class_of(result(404).status_code) == "4xx"
        assert status_class_of(result(503).status_code) == "5xx"
        assert status_class_of(result(301).status_code) == "other"
        error = FetchResult(ip=1, status=FetchStatus.ERROR)
        assert status_class_of(error.status_code) == "other"

    def test_content_type_normalised(self):
        result = FetchResult(
            ip=1,
            status=FetchStatus.OK,
            status_code=200,
            headers={"Content-Type": "TEXT/HTML; charset=utf-8"},
        )
        assert result.content_type == "text/html"


class TestRoundRecordRoundTrip:
    def make_record(self, with_features: bool) -> RoundRecord:
        probe = ProbeOutcome(
            ip=42, status=ProbeStatus.RESPONSIVE, open_ports=frozenset({80, 443})
        )
        fetch = FetchResult(
            ip=42,
            status=FetchStatus.OK,
            url="http://0.0.0.42/",
            status_code=200,
            headers={"Server": "nginx/1.4.1", "Content-Type": "text/html"},
            body="<html><title>hi</title></html>" if with_features else None,
        )
        features = None
        if with_features:
            features = PageFeatures(
                title="hi", server="nginx/1.4.1", simhash=123456789
            )
        return RoundRecord(
            ip=42, round_id=3, timestamp=9, probe=probe, fetch=fetch,
            features=features,
        )

    def test_round_trip_with_features(self):
        record = self.make_record(with_features=True)
        restored = RoundRecord.from_row(record.to_row())
        assert restored.ip == record.ip
        assert restored.probe.open_ports == record.probe.open_ports
        assert restored.fetch.status_code == 200
        assert restored.fetch.headers["Server"] == "nginx/1.4.1"
        assert restored.features == record.features

    def test_round_trip_without_features(self):
        """Rows without stored bodies must not fabricate features."""
        record = self.make_record(with_features=False)
        restored = RoundRecord.from_row(record.to_row())
        assert restored.features is None

    def test_port_enum_values(self):
        assert Port.HTTP == 80
        assert Port.HTTPS == 443
        assert Port.SSH == 22
