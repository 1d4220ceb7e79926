"""Tests for the telemetry subsystem: metric primitives, the registry
and its Prometheus exposition, trace spans and the JSONL sink, the
process-global lifecycle, the scrape endpoint, and the guarantee that
enabling telemetry never changes what a campaign writes to the store.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import telemetry
from repro.core.config import ServeConfig, TelemetryConfig
from repro.core.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_METRIC,
    NOOP_SPAN,
    SpanRecord,
    Telemetry,
    TraceSink,
    parse_prometheus,
    read_trace,
    start_metrics_server,
)

from _fakes import python_calls


@pytest.fixture(autouse=True)
def _isolated_global_telemetry():
    """Every test starts and ends with the disabled default."""
    telemetry.reset()
    yield
    telemetry.reset()


# ----------------------------------------------------------------------
# metric primitives


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_raises(self):
        counter = Counter()
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_can_go_negative(self):
        gauge = Gauge()
        gauge.dec(2)
        assert gauge.value == -2.0


class TestHistogramBuckets:
    def test_boundary_value_lands_in_its_le_bucket(self):
        # Prometheus buckets are "le" (less-or-equal): an observation
        # exactly on a bound belongs to that bound's bucket.
        histogram = Histogram(bounds=(1.0, 2.0, 5.0))
        histogram.observe(1.0)
        assert histogram.bucket_counts == [1, 0, 0, 0]

    def test_just_above_boundary_goes_to_next_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0, 5.0))
        histogram.observe(1.0000001)
        assert histogram.bucket_counts == [0, 1, 0, 0]

    def test_overflow_goes_to_inf_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0, 5.0))
        histogram.observe(100.0)
        assert histogram.bucket_counts == [0, 0, 0, 1]

    def test_zero_and_below_first_bound(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe(0.0)
        histogram.observe(0.5)
        assert histogram.bucket_counts == [2, 0, 0]

    def test_sum_and_count(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(0.5)
        histogram.observe(3.0)
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(3.5)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_quantile_interpolates(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for _ in range(100):
            histogram.observe(1.5)
        # All mass sits in the (1, 2] bucket: the median estimate is
        # the linear midpoint of that bucket.
        assert histogram.quantile(0.5) == pytest.approx(1.5)
        assert histogram.p99 == pytest.approx(1.99)

    def test_quantile_empty_is_zero(self):
        assert Histogram(bounds=(1.0,)).quantile(0.5) == 0.0

    def test_quantile_out_of_range(self):
        histogram = Histogram(bounds=(1.0,))
        with pytest.raises(ValueError):
            histogram.quantile(0.0)
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=50))
    def test_bucket_counts_always_sum_to_count(self, values):
        histogram = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in values:
            histogram.observe(value)
        assert sum(histogram.bucket_counts) == histogram.count == len(values)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=5), min_size=1,
                 max_size=50),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_quantile_bounded_by_bucket_width(self, values, q):
        # The estimate can never leave the histogram's value range
        # [0, last_bound]: interpolation stays inside the winning bucket.
        histogram = Histogram(bounds=(1.0, 2.0, 5.0))
        for value in values:
            histogram.observe(value)
        estimate = histogram.quantile(q)
        assert 0.0 <= estimate <= 5.0


# ----------------------------------------------------------------------
# families, labels, registry


class TestLabels:
    def test_children_keyed_by_label_values(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "x", labels=("stage",))
        family.labels(stage="scan").inc()
        family.labels(stage="scan").inc()
        family.labels(stage="fetch").inc(3)
        assert family.labels(stage="scan").value == 2.0
        assert family.labels(stage="fetch").value == 3.0

    def test_wrong_label_names_raise(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "x", labels=("stage",))
        with pytest.raises(ValueError):
            family.labels(phase="scan")
        with pytest.raises(ValueError):
            family.labels(stage="scan", extra="y")
        with pytest.raises(ValueError):
            family.labels()

    def test_labelled_family_rejects_anonymous_use(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", "x", labels=("stage",))
        with pytest.raises(ValueError):
            family.inc()

    def test_unlabelled_family_proxies(self):
        registry = MetricsRegistry()
        family = registry.counter("y_total", "y")
        family.inc(2)
        assert family.value == 2.0

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        family = registry.gauge("z", "z", labels=("worker",))
        family.labels(worker=3).set(1)
        assert family.labels(worker="3").value == 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=40))
    def test_per_label_counts_partition_the_total(self, events):
        registry = MetricsRegistry()
        family = registry.counter("e_total", "e", labels=("kind",))
        for kind in events:
            family.labels(kind=kind).inc()
        total = sum(child.value for _, child in family.children())
        assert total == len(events)

    def test_registration_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "a", labels=("x",))
        again = registry.counter("a_total", "different help",
                                 labels=("x",))
        assert first is again

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a")
        with pytest.raises(ValueError):
            registry.gauge("a_total", "a")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", labels=("x",))
        with pytest.raises(ValueError):
            registry.counter("a_total", "a", labels=("y",))


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", labels=("stage",)) \
            .labels(stage="fetch").inc(7)
        registry.gauge("depth", "queue depth").set(3)
        histogram = registry.histogram("lat_seconds", "latency",
                                       buckets=(0.5, 1.0))
        histogram.observe(0.3)
        histogram.observe(2.0)
        return registry

    def test_render_contains_help_type_and_samples(self):
        text = self._registry().render_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{stage="fetch"} 7' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_count 2" in text

    def test_histogram_buckets_are_cumulative(self):
        text = self._registry().render_prometheus()
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 1' in text

    def test_parse_round_trips_render(self):
        registry = self._registry()
        samples = parse_prometheus(registry.render_prometheus())
        assert samples[("req_total", (("stage", "fetch"),))] == 7.0
        assert samples[("depth", ())] == 3.0
        assert samples[("lat_seconds_count", ())] == 2.0
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 2.0

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry()
        family = registry.counter("odd_total", "odd", labels=("name",))
        family.labels(name='a"b\\c,d').inc()
        samples = parse_prometheus(registry.render_prometheus())
        assert samples[("odd_total", (("name", 'a"b\\c,d'),))] == 1.0

    def test_snapshot_shape(self):
        snapshot = self._registry().snapshot()
        assert snapshot["req_total"]["kind"] == "counter"
        assert snapshot["depth"]["samples"][0]["value"] == 3.0


# ----------------------------------------------------------------------
# spans and the trace sink


class TestSpans:
    def _enabled(self, tmp_path=None):
        path = str(tmp_path / "trace.jsonl") if tmp_path else None
        return Telemetry(TelemetryConfig(enabled=True, trace_path=path))

    def test_span_records_duration_and_context(self):
        tel = self._enabled()
        with tel.span("fetch", round_id=3, shard=1, worker=0):
            pass
        [span] = tel.trace.recent()
        assert span.stage == "fetch"
        assert span.outcome == "ok"
        assert (span.round_id, span.shard, span.worker) == (3, 1, 0)
        assert span.duration >= 0.0

    def test_span_exception_path(self):
        tel = self._enabled()
        with pytest.raises(KeyError):
            with tel.span("extract"):
                raise KeyError("boom")
        [span] = tel.trace.recent()
        assert span.outcome == "error"
        assert span.error_kind == "KeyError"

    def test_spans_nest(self):
        tel = self._enabled()
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        stages = [span.stage for span in tel.trace.recent()]
        # The inner span finishes (and is journaled) first.
        assert stages == ["inner", "outer"]

    def test_nested_exception_marks_both(self):
        tel = self._enabled()
        with pytest.raises(RuntimeError):
            with tel.span("outer"):
                with tel.span("inner"):
                    raise RuntimeError
        inner, outer = tel.trace.recent()
        assert inner.outcome == outer.outcome == "error"

    def test_span_metrics(self):
        tel = self._enabled()
        with tel.span("scan"):
            pass
        with pytest.raises(ValueError):
            with tel.span("scan"):
                raise ValueError
        samples = parse_prometheus(tel.registry.render_prometheus())
        key_ok = ("repro_spans_total",
                  (("outcome", "ok"), ("stage", "scan")))
        key_err = ("repro_spans_total",
                   (("outcome", "error"), ("stage", "scan")))
        assert samples[key_ok] == 1.0
        assert samples[key_err] == 1.0

    def test_ring_is_bounded(self):
        tel = self._enabled()
        tel.trace = TraceSink(ring_size=4)
        for index in range(10):
            with tel.span(f"s{index}"):
                pass
        recent = tel.trace.recent()
        assert len(recent) == 4
        assert recent[-1].stage == "s9"

    def test_jsonl_round_trip(self, tmp_path):
        tel = self._enabled(tmp_path)
        with tel.span("fetch", round_id=1):
            pass
        with pytest.raises(ValueError):
            with tel.span("extract", shard=2):
                raise ValueError
        tel.close()
        spans = list(read_trace(str(tmp_path / "trace.jsonl")))
        assert [span.stage for span in spans] == ["fetch", "extract"]
        assert spans[1].error_kind == "ValueError"

    def test_read_trace_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        good = json.dumps(SpanRecord("scan", 0.0, 0.1, "ok").to_dict())
        path.write_text(f'{good}\n{{"stage": "fe\n{good}\n')
        spans = list(read_trace(str(path)))
        assert len(spans) == 2

    def test_concurrent_spans_all_journaled(self, tmp_path):
        tel = self._enabled(tmp_path)

        def work():
            for _ in range(50):
                with tel.span("worker"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tel.close()
        spans = list(read_trace(str(tmp_path / "trace.jsonl")))
        assert len(spans) == 200

    def test_sink_survives_unwritable_path(self):
        sink = TraceSink(path="/nonexistent-dir/trace.jsonl")
        sink.record(SpanRecord("scan", 0.0, 0.1, "ok"))
        assert sink.dropped_writes == 1
        assert len(sink.recent()) == 1


# ----------------------------------------------------------------------
# lifecycle: no-op default, configure/activate/reset


class TestLifecycle:
    def test_disabled_hands_out_noop_singletons(self):
        tel = Telemetry()
        assert tel.counter("a_total") is NOOP_METRIC
        assert tel.gauge("b") is NOOP_METRIC
        assert tel.histogram("c_seconds") is NOOP_METRIC
        assert tel.span("scan") is NOOP_SPAN
        assert NOOP_METRIC.labels(stage="x") is NOOP_METRIC

    def test_noop_accepts_all_operations(self):
        NOOP_METRIC.inc()
        NOOP_METRIC.dec(2)
        NOOP_METRIC.set(5)
        NOOP_METRIC.observe(0.1)
        assert NOOP_METRIC.value == 0.0
        with NOOP_SPAN:
            pass

    def test_disabled_span_still_propagates_exceptions(self):
        tel = Telemetry()
        with pytest.raises(KeyError):
            with tel.span("scan"):
                raise KeyError

    def test_configure_replaces_global(self):
        config = TelemetryConfig(enabled=True)
        tel = telemetry.configure(config)
        assert telemetry.get() is tel
        assert telemetry.get().enabled

    def test_activate_from_is_idempotent(self):
        config = TelemetryConfig(enabled=True)
        first = telemetry.activate_from(config)
        second = telemetry.activate_from(config)
        assert first is second

    def test_activate_from_disabled_config_is_noop(self):
        before = telemetry.get()
        telemetry.activate_from(TelemetryConfig())
        assert telemetry.get() is before

    def test_reset_disables(self):
        telemetry.configure(TelemetryConfig(enabled=True))
        telemetry.reset()
        assert not telemetry.get().enabled


# ----------------------------------------------------------------------
# the scrape endpoint


class TestMetricsServer:
    def _fetch(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5
        ) as response:
            return response.status, response.read().decode("utf-8")

    def test_serves_metrics_snapshot_and_health(self):
        tel = Telemetry(TelemetryConfig(enabled=True))
        tel.counter("up_total", "up").inc(4)
        server = start_metrics_server(tel, 0)
        port = server.server_address[1]
        try:
            status, body = self._fetch(port, "/metrics")
            assert status == 200
            assert parse_prometheus(body)[("up_total", ())] == 4.0
            status, body = self._fetch(port, "/snapshot")
            assert json.loads(body)["up_total"]["kind"] == "counter"
            status, body = self._fetch(port, "/healthz")
            assert body == "ok\n"
            with pytest.raises(urllib.error.HTTPError):
                self._fetch(port, "/nope")
        finally:
            server.shutdown()
            server.server_close()

    def test_endpoint_reflects_live_updates(self):
        tel = Telemetry(TelemetryConfig(enabled=True))
        counter = tel.counter("tick_total", "ticks")
        server = start_metrics_server(tel, 0)
        port = server.server_address[1]
        try:
            counter.inc()
            _, first = self._fetch(port, "/metrics")
            counter.inc(2)
            _, second = self._fetch(port, "/metrics")
            assert parse_prometheus(first)[("tick_total", ())] == 1.0
            assert parse_prometheus(second)[("tick_total", ())] == 3.0
        finally:
            server.shutdown()
            server.server_close()


# ----------------------------------------------------------------------
# the guarantee: telemetry observes, never participates


class TestStoreOutputUnchanged:
    def _campaign_checksums(self, path, telemetry_on):
        from repro.cli import main
        from repro.core.store import MeasurementStore

        argv = [
            "simulate", "--cloud", "ec2", "--ips", "512", "--days", "6",
            "--seed", "13", "--out", path,
        ]
        if telemetry_on:
            argv += ["--trace-out", f"{path}.trace.jsonl"]
        assert main(argv) == 0
        store = MeasurementStore(path)
        checksums = {}
        for info in store.rounds():
            checksums[info.round_id] = [
                (entry.shard_index, entry.checksum, entry.record_count)
                for entry in store.shard_journal(info.round_id)
            ]
        store.close()
        return checksums

    def test_enabling_telemetry_is_invisible_in_the_store(self, tmp_path):
        plain = self._campaign_checksums(
            str(tmp_path / "plain.sqlite"), telemetry_on=False
        )
        telemetry.reset()
        traced = self._campaign_checksums(
            str(tmp_path / "traced.sqlite"), telemetry_on=True
        )
        assert plain == traced
        assert traced  # campaigns actually produced rounds

    def test_traced_campaign_wrote_spans(self, tmp_path):
        path = str(tmp_path / "spanned.sqlite")
        self._campaign_checksums(path, telemetry_on=True)
        telemetry.get().close()
        spans = list(read_trace(f"{path}.trace.jsonl"))
        stages = {span.stage for span in spans}
        assert {"scan", "fetch", "extract"} <= stages
        assert all(span.outcome in ("ok", "error") for span in spans)


class TestMetricsServerSlowLoris:
    """The exposition endpoint must shrug off clients that connect and
    stall: each connection's socket read is bounded by request_timeout,
    so a slow-loris cannot pin handler threads."""

    def test_stalled_client_is_dropped_and_server_stays_up(self):
        import socket
        import time as _time

        tel = Telemetry(TelemetryConfig(enabled=True))
        tel.counter("alive_total", "liveness").inc()
        server = start_metrics_server(tel, 0, request_timeout=0.5)
        port = server.server_address[1]
        try:
            # A slow-loris: connect, send a *partial* request line, and
            # hold the socket open without ever finishing it.
            loris = socket.create_connection(("127.0.0.1", port), timeout=5)
            loris.sendall(b"GET /metr")  # never completes
            deadline = _time.monotonic() + 5.0
            dropped = False
            while _time.monotonic() < deadline:
                # The handler times the socket out and closes it; our
                # next recv then observes EOF (empty bytes) or a reset.
                loris.settimeout(0.25)
                try:
                    if loris.recv(1024) == b"":
                        dropped = True
                        break
                except socket.timeout:
                    continue
                except OSError:
                    dropped = True
                    break
            loris.close()
            assert dropped, "stalled connection was never closed"
            # And the server still answers well-formed requests.
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=5
            ) as response:
                assert response.status == 200
                assert "alive_total" in response.read().decode()
        finally:
            server.shutdown()
            server.server_close()

    def test_request_timeout_must_be_positive(self):
        tel = Telemetry(TelemetryConfig(enabled=True))
        with pytest.raises(ValueError):
            start_metrics_server(tel, 0, request_timeout=0)


# ----------------------------------------------------------------------
# the price of the switch, as a count that repeats


class TestEnabledCostInPythonCalls:
    """What ``TelemetryConfig(enabled=True)`` adds to the two hot paths,
    counted in Python ``call`` events rather than timed: a wall-clock
    comparison of the two modes on this workload spreads wider than the
    effect it looks for, while these counts repeat to a tenth of a call.
    Reading when written: +6.7 calls per record (664.3 -> 670.9) on the
    ingest round, +30.9 per request (893 -> 924, client included on both
    sides; 30.7-31.1 over five runs) on serve.  The budgets leave room
    for that spread and fail on one more ``labels(...).inc()`` per page
    or per request (a labelled increment is four calls: tried on
    ``repro_guard_verdicts_total`` -> +8.9, on
    ``repro_serve_requests_total`` -> +35.1).

    Blind spot: the proxy does not see time spent inside C (the
    registry's lock, ``time.perf_counter``) or the trace sink's
    ``write`` -- a sink on a slow disk costs wall time this test cannot
    notice.  Adds about 4 s to tier-1.
    """

    @pytest.fixture(scope="class")
    def rounds(self, tmp_path_factory):
        """One seeded 4 096-IP round per mode: {enabled: (calls, records,
        rows, db path)}."""
        from repro.core.platform import WhoWas
        from repro.core.store import MeasurementStore
        from repro.workloads import build_sim_scenario
        from repro.workloads.campaign import simulation_config

        tmp = tmp_path_factory.mktemp("telemetry_calls")
        out = {}
        for enabled in (False, True):
            telemetry.reset()
            scenario = build_sim_scenario(
                {"cloud": "ec2", "ips": 4096, "seed": 7})
            db = str(tmp / f"enabled_{enabled}.sqlite")
            store = MeasurementStore(db)
            platform = WhoWas(scenario.transport, store, dataclasses.replace(
                simulation_config(),
                telemetry=TelemetryConfig(enabled=enabled),
            ))
            calls, summary = python_calls(lambda: platform.run_round(
                list(scenario.targets), timestamp=scenario.scan_days[0]))
            rows = [record.to_row() for record in store.records(1)]
            platform.close()
            store.close()
            out[enabled] = (calls, summary.pipeline.records_written, rows, db)
        telemetry.reset()
        return out

    def test_ingest_adds_at_most_8_calls_per_record(self, rounds):
        off_calls, records, off_rows, _ = rounds[False]
        on_calls, on_records, on_rows, _ = rounds[True]
        assert records == on_records > 900
        assert off_rows == on_rows
        assert 0 < (on_calls - off_calls) / records <= 8

    def test_serve_adds_at_most_33_calls_per_request(self, rounds):
        from repro.cloudsim.addressing import int_to_ip
        from repro.serve import ServeApp

        *_, rows, db = rounds[False]
        ip = int_to_ip(rows[0]["ip"])
        targets = [f"/ip/{ip}", "/rounds", "/rounds/1",
                   "/clusters/1?column=server"] * 50

        async def status_of(port, target):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write(f"GET {target} HTTP/1.1\r\nHost: t\r\n"
                             "Connection: close\r\n\r\n".encode())
                raw = await reader.read()
            finally:
                writer.close()
            return int(raw.split(b" ", 2)[1])

        async def drive():
            # Admission opened: this counts the served path, not the shed.
            app = ServeApp(db, ServeConfig(
                port=0, rate_per_second=1e6, burst=1e6))
            await app.start()
            try:
                return [await status_of(app.port, t) for t in targets]
            finally:
                await app.close()

        calls = {}
        for enabled in (False, True):
            telemetry.configure(TelemetryConfig(enabled=enabled))
            calls[enabled], statuses = python_calls(
                lambda: asyncio.run(drive()))
            assert statuses == [200] * len(targets)
        assert 0 < (calls[True] - calls[False]) / len(targets) <= 33
