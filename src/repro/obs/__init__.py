"""Observability: lifecycle spans, pipeline sampling and exporters.

Three pillars on top of the simulation substrate:

- :mod:`repro.obs.spans` — the run recorder: per-request lifecycle spans
  stamped at every pipeline hand-off, aggregated into per-stage latency
  histograms (the "where did the p99 go" breakdown), plus instant events
  (view changes, executions, recoveries, checkpoints) for replay debugging.
- :mod:`repro.obs.sampler` — a periodic sim process snapshotting queue
  depths, CPU occupancy and network counters into bounded time series.
- :mod:`repro.obs.exporters` — Prometheus text, JSON, CSV and Chrome
  trace-event (Perfetto) serialisers.

Every recorder hook tests one flag, ``spans.enabled``: disabled
observability costs hot paths one attribute read and changes no results.
"""

from repro.obs.exporters import (
    chrome_trace,
    metrics_json,
    prometheus_text,
    sampler_csv,
)
from repro.obs.sampler import PipelineSampler, TimeSeries
from repro.obs.spans import STAGES, SpanRecorder, validate_stage_order

__all__ = [
    "STAGES",
    "SpanRecorder",
    "PipelineSampler",
    "TimeSeries",
    "chrome_trace",
    "metrics_json",
    "prometheus_text",
    "sampler_csv",
    "validate_stage_order",
]
