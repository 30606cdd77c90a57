"""Golden-output tests for the exporters (repro.obs.exporters)."""

import json
import re

from repro.obs.exporters import (
    chrome_trace,
    metrics_json,
    prometheus_text,
    sampler_csv,
)
from repro.obs.sampler import PipelineSampler, TimeSeries
from repro.obs.spans import SpanRecorder
from repro.sim.kernel import Simulator
from repro.sim.metrics import MetricsRegistry

#: one Prometheus exposition line: comment, blank, or `name{labels} value`
_PROM_LINE = re.compile(
    r"^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9eE.+-]+|)$"
)


def small_registry():
    sim = Simulator()
    registry = MetricsRegistry(sim)
    registry.counter("txns_completed").increment(42)
    histogram = registry.histogram("request_latency")
    for latency in (1_000, 2_000, 3_000, 4_000):
        histogram.record(latency)
    sim.now = 1_000_000
    return registry


# ----------------------------------------------------------------------
# Prometheus
# ----------------------------------------------------------------------
def test_prometheus_golden():
    text = prometheus_text(small_registry())
    assert text == (
        "# TYPE repro_txns_completed_total counter\n"
        "repro_txns_completed_total 42\n"
        "# TYPE repro_request_latency_seconds summary\n"
        'repro_request_latency_seconds{quantile="0.5"} 0.000002000\n'
        'repro_request_latency_seconds{quantile="0.9"} 0.000004000\n'
        'repro_request_latency_seconds{quantile="0.99"} 0.000004000\n'
        "repro_request_latency_seconds_sum 0.000010000\n"
        "repro_request_latency_seconds_count 4\n"
        "# TYPE repro_measurement_window_seconds gauge\n"
        "repro_measurement_window_seconds 0.001000000\n"
    )


def test_prometheus_every_line_is_valid():
    sampler = PipelineSampler.__new__(PipelineSampler)
    sampler.series = {"r0.batch-q.depth": TimeSeries("r0.batch-q.depth")}
    sampler.series["r0.batch-q.depth"].append(10, 3.0)
    spans = SpanRecorder(enabled=True)
    spans.begin(("c", 1), 0)
    spans.stamp(("c", 1), "input", 5)
    spans.finish(("c", 1), 9)
    text = prometheus_text(small_registry(), sampler=sampler, spans=spans)
    for line in text.splitlines():
        assert _PROM_LINE.match(line), f"invalid Prometheus line: {line!r}"
    assert 'repro_sample{series="r0.batch-q.depth"} 3.0' in text
    assert "repro_stage_input_seconds_count 1" in text


def test_prometheus_sanitises_names():
    registry = small_registry()
    registry.counter("weird-name.with/chars").increment()
    text = prometheus_text(registry)
    assert "repro_weird_name_with_chars_total 1" in text


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def test_metrics_json_structure():
    spans = SpanRecorder(enabled=True)
    spans.begin(("c", 1), 0)
    spans.finish(("c", 1), 100)
    doc = json.loads(metrics_json(small_registry(), spans=spans))
    assert doc["counters"] == {"txns_completed": 42}
    assert doc["window_ns"] == 1_000_000
    latency = doc["histograms"]["request_latency"]
    assert latency["count"] == 4
    assert latency["p50_s"] == 2e-6
    assert latency["max_s"] == 4e-6
    assert doc["spans_completed"] == 1
    assert "total" in doc["stage_latency"]
    # stable output: serialising twice is byte-identical
    assert metrics_json(small_registry()) == metrics_json(small_registry())


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def test_sampler_csv_golden():
    sampler = PipelineSampler.__new__(PipelineSampler)
    series_a = TimeSeries("a.depth")
    series_a.append(10, 1.0)
    series_a.append(20, 2.5)
    series_b = TimeSeries("b.depth")
    series_b.append(10, 0.0)
    sampler.series = {"b.depth": series_b, "a.depth": series_a}
    assert sampler_csv(sampler) == (
        "time_ns,series,value\n"
        "10,a.depth,1\n"
        "10,b.depth,0\n"
        "20,a.depth,2.5\n"
    )


# ----------------------------------------------------------------------
# Chrome trace events (Perfetto)
# ----------------------------------------------------------------------
def test_chrome_trace_spans_and_tracer():
    recorder = SpanRecorder(enabled=True, keep_finished=10, keep_events=10)
    recorder.begin(("client0", 3), 1_000)
    recorder.stamp(("client0", 3), "input", 2_000)
    recorder.stamp(("client0", 3), "execute", 5_000)
    recorder.finish(("client0", 3), 6_000)
    recorder.event(4_000, "r0", "checkpoint", "stable at 10")

    doc = json.loads(chrome_trace(recorder))
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert isinstance(events, list)

    meta = [e for e in events if e["ph"] == "M"]
    assert {e["args"]["name"] for e in meta} == {"client0", "r0"}

    slices = [e for e in events if e["ph"] == "X"]
    assert [e["name"] for e in slices] == ["input", "execute", "reply"]
    input_slice = slices[0]
    assert input_slice["ts"] == 1.0  # 1_000 ns -> 1 us
    assert input_slice["dur"] == 1.0
    assert input_slice["tid"] == 3
    # stages tile the span with no gaps
    assert slices[1]["ts"] == input_slice["ts"] + input_slice["dur"]

    instants = [e for e in events if e["ph"] == "i"]
    assert instants[0]["name"] == "checkpoint"
    assert instants[0]["args"]["detail"] == "stable at 10"
    assert instants[0]["s"] == "t"

    # every event carries the fields Perfetto's importer requires
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)


def test_chrome_trace_empty_inputs():
    doc = json.loads(chrome_trace(SpanRecorder()))
    assert doc["traceEvents"] == []
