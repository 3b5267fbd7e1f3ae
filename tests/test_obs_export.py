"""Telemetry export surfaces: Prometheus, Chrome trace JSON, top, SLO.

Satellite contracts of the observability PR:

* histograms count overflow/underflow explicitly and flag quantiles
  drawn from saturated edge buckets;
* the Prometheus exposition is schema-pinned (prefix, type suffixes,
  cumulative buckets) and passes its own validator;
* the Chrome trace-event export is structurally valid trace JSON;
* ``repro top``'s rate/render helpers are pure and deterministic;
* the loadgen SLO gate trips on exactly the configured breaches.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import (
    BUCKET_CAP,
    merge_histogram,
    new_histogram,
    observe,
    quantile_saturated,
    summarize_histogram,
)
from repro.obs.prom import (
    metric_name,
    prometheus_exposition,
    validate_exposition,
)
from repro.obs.trace import (
    TraceContext,
    annex_to_chrome_events,
    chrome_trace_document,
    spans_to_chrome_events,
)
from repro.service.loadgen import (
    LoadgenReport,
    slo_breaches,
    write_stats_json,
)
from repro.service.top import render_dashboard, sample_rates


class TestHistogramSaturation:
    """Overflow/underflow are counted, and quantiles flag saturation."""

    def test_overflow_and_underflow_counted(self):
        cell = new_histogram()
        observe(cell, 5)
        observe(cell, -3)
        observe(cell, 1 << 70)
        assert cell["count"] == 3
        assert cell["underflow"] == 1
        assert cell["overflow"] == 1

    def test_in_range_observations_do_not_saturate(self):
        cell = new_histogram()
        for value in (1, 10, 100, 1000):
            observe(cell, value)
        summary = summarize_histogram(cell)
        assert summary["saturated"] is False
        assert set(summary) == {
            "count", "mean", "p50", "p95", "p99", "saturated",
        }

    def test_quantile_in_cap_bucket_flagged(self):
        cell = new_histogram()
        for _ in range(10):
            observe(cell, 1 << 70)  # clamps into the cap bucket
        assert quantile_saturated(cell, 0.99) is True
        assert summarize_histogram(cell)["saturated"] is True

    def test_quantile_in_underflow_bucket_flagged(self):
        cell = new_histogram()
        for _ in range(10):
            observe(cell, -1)
        assert quantile_saturated(cell, 0.50) is True

    def test_cap_bucket_without_clamping_not_flagged(self):
        cell = new_histogram()
        observe(cell, (1 << BUCKET_CAP) - 1)  # max in-range value
        assert cell["overflow"] == 0
        assert summarize_histogram(cell)["saturated"] is False

    def test_merge_tolerates_pre_saturation_snapshots(self):
        into = new_histogram()
        observe(into, -1)
        legacy = {"buckets": {3: 2}, "count": 2, "total": 10}
        merge_histogram(into, legacy)
        assert into["count"] == 3
        assert into["underflow"] == 1 and into["overflow"] == 0


SNAPSHOT = {
    "counters": {"service.requests.compress": 12, "pipeline.jobs": 3},
    "gauges": {"service.queue_depth": 7},
    "histograms": {
        "service.latency_us.compress": {
            "buckets": {1: 2, 3: 5, 5: 1},
            "count": 8,
            "total": 60,
            "overflow": 0,
            "underflow": 0,
        },
    },
}


class TestPrometheusExposition:
    """The text-format mapping is pinned line by line."""

    def test_metric_name_folding(self):
        assert metric_name("service.latency_us.compress") == (
            "repro_service_latency_us_compress"
        )
        assert metric_name("9lives") == "repro__9lives"

    def test_counter_and_gauge_samples(self):
        text = prometheus_exposition(SNAPSHOT)
        assert "# TYPE repro_service_requests_compress_total counter" in text
        assert "repro_service_requests_compress_total 12" in text
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_queue_depth 7" in text

    def test_histogram_samples_cumulative(self):
        lines = prometheus_exposition(SNAPSHOT).splitlines()
        metric = "repro_service_latency_us_compress"
        samples = [l for l in lines if l.startswith(metric + "_bucket")]
        assert samples == [
            f'{metric}_bucket{{le="1"}} 2',
            f'{metric}_bucket{{le="7"}} 7',
            f'{metric}_bucket{{le="31"}} 8',
            f'{metric}_bucket{{le="+Inf"}} 8',
        ]
        assert f"{metric}_sum 60" in lines
        assert f"{metric}_count 8" in lines

    def test_overflow_emitted_only_when_present(self):
        assert "_overflow_total" not in prometheus_exposition(SNAPSHOT)
        saturated = {
            "histograms": {
                "h": {"buckets": {BUCKET_CAP: 1}, "count": 1,
                      "total": 1 << 70, "overflow": 1, "underflow": 0},
            },
        }
        text = prometheus_exposition(saturated)
        assert "repro_h_overflow_total 1" in text

    def test_exposition_is_deterministic(self):
        assert prometheus_exposition(SNAPSHOT) == (
            prometheus_exposition(json.loads(json.dumps(SNAPSHOT)))
        )

    def test_validator_passes_own_output(self):
        assert validate_exposition(prometheus_exposition(SNAPSHOT)) == []

    def test_validator_catches_defects(self):
        assert validate_exposition("orphan_sample 1\n")
        assert validate_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'  # not cumulative
        )
        assert validate_exposition(
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 5\n'
            "h_count 9\n"  # +Inf != count
        )

    def test_live_recorder_snapshot_validates(self):
        from repro.obs.recorder import Recorder

        recorder = Recorder()
        recorder.count("a.b", 2)
        recorder.gauge("c", 9)
        for value in (1, 5, 900):
            recorder.observe("lat", value)
        text = prometheus_exposition(recorder.snapshot())
        assert validate_exposition(text) == []


class TestChromeTraceExport:
    """Trace annexes and span trees render as valid trace-event JSON."""

    def _annex(self):
        ctx = TraceContext(77, origin_ns=1000)
        ctx.mark("dispatch", now_ns=1100)
        ctx.mark("codec", now_ns=2100)
        ctx.annotations.append({"name": "registry", "at_ns": 150,
                                "outcome": "hit"})
        return ctx.to_annex()

    def test_annex_events_structure(self):
        events = annex_to_chrome_events(self._annex(), pid=2, tid=3)
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(complete) == 3  # request + 2 segments
        assert len(instants) == 1
        for event in events:
            assert event["pid"] == 2 and event["tid"] == 3
            assert isinstance(event["ts"], float)
        segment = next(e for e in complete if e["name"] == "codec")
        assert segment["ts"] == pytest.approx(0.1)  # 100ns → 0.1µs
        assert segment["dur"] == pytest.approx(1.0)

    def test_document_shape(self):
        document = chrome_trace_document(
            annex_to_chrome_events(self._annex())
        )
        # The Chrome trace-event "JSON Object Format": traceEvents is
        # the one required key, and the whole thing must be valid JSON.
        round_tripped = json.loads(json.dumps(document))
        assert isinstance(round_tripped["traceEvents"], list)
        assert round_tripped["displayTimeUnit"] == "ms"

    def test_span_tree_layout_preserves_nesting(self):
        spans = {
            "run": {"count": 1, "total_ns": 10_000,
                    "min_ns": 10_000, "max_ns": 10_000},
            "run/encode": {"count": 2, "total_ns": 6_000,
                           "min_ns": 1_000, "max_ns": 5_000},
            "run/train": {"count": 1, "total_ns": 3_000,
                          "min_ns": 3_000, "max_ns": 3_000},
        }
        events = {e["name"]: e for e in spans_to_chrome_events(spans)}
        assert events["run"]["ts"] == 0.0
        # Children start at the parent's start, heaviest first.
        assert events["encode"]["ts"] == 0.0
        assert events["train"]["ts"] == pytest.approx(6.0)
        assert events["run"]["args"]["count"] == 1


class TestTopHelpers:
    """Rates and rendering are pure functions over stats documents."""

    def _doc(self, compress=0, bytes_out=0):
        return {
            "schema_version": 2,
            "uptime_seconds": 12.5,
            "counters": {
                "service.requests.compress": compress,
                "service.replies.ok": compress,
                "service.bytes_out": bytes_out,
            },
            "latency_us": {
                "compress": {"count": compress, "mean": 500,
                             "p50": 400, "p95": 900, "p99": 1500,
                             "saturated": False},
            },
            "batch": {"count": 4, "mean": 2, "p50": 2, "p95": 3,
                      "p99": 3, "saturated": False},
            "queue": {"capacity": 256, "depth": 1,
                      "depth_highwater": 9, "inflight": 2},
            "registry": {"entries": 3, "max_entries": 32,
                         "trained": 3, "hits": 9, "evictions": 0},
        }

    def test_first_sample_has_zero_rates(self):
        rates = sample_rates(None, self._doc(compress=100), 2.0)
        assert all(value == 0.0 for value in rates.values())

    def test_rates_from_counter_deltas(self):
        rates = sample_rates(
            self._doc(compress=100, bytes_out=1000),
            self._doc(compress=150, bytes_out=3000),
            2.0,
        )
        assert rates["service.requests.compress"] == 25.0
        assert rates["service.bytes_out"] == 1000.0

    def test_counter_reset_clamps_to_zero(self):
        rates = sample_rates(
            self._doc(compress=100), self._doc(compress=10), 1.0
        )
        assert rates["service.requests.compress"] == 0.0

    def test_render_dashboard_lines(self):
        lines = render_dashboard(
            self._doc(compress=5),
            {"service.requests.compress": 42.0},
        )
        text = "\n".join(lines)
        assert "rps     42.0" in text
        assert "queue 1/256" in text
        assert "in-flight 2" in text
        assert "75.0% hit rate" in text
        assert "compress" in text and "p99" in text

    def test_saturated_latency_is_flagged(self):
        doc = self._doc(compress=5)
        doc["latency_us"]["compress"]["saturated"] = True
        assert "(saturated)" in "\n".join(render_dashboard(doc))


class TestSloGate:
    """The loadgen SLO gate trips on exactly the configured breaches."""

    def _report(self, latencies, connection_faults=0, service_errors=0):
        report = LoadgenReport(
            target_rps=100, duration=1, connections=1, seed=0,
            sent=len(latencies) or 1, ok=len(latencies),
            connection_faults=connection_faults,
            service_errors=service_errors,
            elapsed=1.0, latencies_ms=list(latencies),
        )
        return report

    def test_clean_run_passes(self):
        report = self._report([1.0] * 100)
        assert slo_breaches(report, p99_ms=20, max_error_rate=0.0) == []

    def test_p99_breach(self):
        report = self._report([1.0] * 98 + [50.0, 60.0])
        breaches = slo_breaches(report, p99_ms=20)
        assert len(breaches) == 1 and "p99" in breaches[0]

    def test_error_rate_breach(self):
        report = self._report([1.0] * 10, service_errors=2)
        report.sent = 12
        breaches = slo_breaches(report, max_error_rate=0.1)
        assert len(breaches) == 1 and "error rate" in breaches[0]

    def test_protocol_errors_always_breach(self):
        report = self._report([1.0], connection_faults=1)
        assert slo_breaches(report) != []

    def test_no_gates_no_latency_breach(self):
        report = self._report([500.0] * 10)
        assert slo_breaches(report) == []

    def test_stats_json_artifact(self, tmp_path):
        report = self._report([1.0, 2.0, 3.0])
        report.service_stats = {"schema_version": 2}
        path = tmp_path / "loadgen.json"
        write_stats_json(report, str(path))
        document = json.loads(path.read_text())
        assert document["requests_sent"] == 3
        assert document["service_stats"]["schema_version"] == 2
        assert "latency_ms" in document
