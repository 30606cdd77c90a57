"""Export observability data: Prometheus text, JSON, CSV, Chrome trace.

Four serialisers, all pure functions of the in-memory instruments:

- :func:`prometheus_text` — the Prometheus exposition format (text/plain
  version 0.0.4) for :class:`~repro.sim.metrics.MetricsRegistry` counters,
  histograms (as summaries), plus the latest sampler values as gauges.  Scrape the file or serve it as-is.
- :func:`metrics_json` — the same data as one JSON document (stable key
  order) for ad-hoc tooling and golden tests.
- :func:`sampler_csv` — the sampler's time series in long format
  (``time_ns,series,value``), one row per sample, ready for pandas or
  gnuplot queue-growth plots.
- :func:`chrome_trace` — Chrome trace-event JSON (load in Perfetto via
  https://ui.perfetto.dev or ``chrome://tracing``) combining lifecycle
  span stages (complete events per pipeline stage) and
  :class:`~repro.obs.spans.SpanRecorder` events (instant events).

Simulation ticks are nanoseconds; trace-event timestamps are microseconds,
so exported ``ts``/``dur`` values are ticks / 1000.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from repro.obs.spans import STAGES
from repro.sim.clock import NANOS_PER_SEC

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: quantiles reported for every histogram in Prometheus / JSON exports
QUANTILES = (50.0, 90.0, 99.0)


def _metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitise an instrument name into a legal Prometheus metric name."""
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}"


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def prometheus_text(registry, sampler=None, spans=None) -> str:
    """Render a registry (and optional sampler/spans) as Prometheus text."""
    lines: List[str] = []

    for name in sorted(registry.counters):
        metric = _metric_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {registry.counters[name].value}")

    for name in sorted(registry.histograms):
        _summary_lines(lines, _metric_name(name), registry.histograms[name])

    window = _metric_name("measurement_window_seconds")
    lines.append(f"# TYPE {window} gauge")
    lines.append(f"{window} {registry.window_ns() / NANOS_PER_SEC:.9f}")

    if spans is not None and spans.histograms:
        for stage in sorted(spans.histograms):
            _summary_lines(
                lines,
                _metric_name(f"stage_{stage}"),
                spans.histograms[stage],
            )

    if sampler is not None and sampler.series:
        metric = _metric_name("sample")
        lines.append(f"# TYPE {metric} gauge")
        for name in sorted(sampler.series):
            series = sampler.series[name]
            if not len(series):
                continue
            _at, value = series.points[-1]
            lines.append(f'{metric}{{series="{name}"}} {value}')

    return "\n".join(lines) + "\n"


def _summary_lines(lines: List[str], metric: str, histogram) -> None:
    metric = metric + "_seconds"
    lines.append(f"# TYPE {metric} summary")
    for pct in QUANTILES:
        value = histogram.percentile_seconds(pct) if histogram.count else 0.0
        lines.append(f'{metric}{{quantile="{pct / 100.0:g}"}} {value:.9f}')
    total_seconds = histogram.mean_seconds() * histogram.count
    lines.append(f"{metric}_sum {total_seconds:.9f}")
    lines.append(f"{metric}_count {histogram.count}")


# ----------------------------------------------------------------------
# JSON
# ----------------------------------------------------------------------
def metrics_json(registry, sampler=None, spans=None, indent: int = 2) -> str:
    """One JSON document with counters, histograms, stage latency and
    sampled time series (stable key order)."""
    doc: Dict[str, object] = {
        "counters": {
            name: counter.value
            for name, counter in sorted(registry.counters.items())
        },
        "histograms": {
            name: _histogram_dict(histogram)
            for name, histogram in sorted(registry.histograms.items())
        },
        "window_ns": registry.window_ns(),
    }
    if spans is not None:
        doc["stage_latency"] = spans.stage_table()
        doc["spans_completed"] = spans.spans_completed
    if sampler is not None:
        doc["series"] = {
            name: [[at, value] for at, value in series.points]
            for name, series in sorted(sampler.series.items())
        }
    return json.dumps(doc, indent=indent, sort_keys=True)


def _histogram_dict(histogram) -> Dict[str, float]:
    out: Dict[str, float] = {
        "count": histogram.count,
        "mean_s": histogram.mean_seconds(),
        "max_s": histogram.max_seconds(),
    }
    for pct in QUANTILES:
        out[f"p{pct:g}_s"] = (
            histogram.percentile_seconds(pct) if histogram.count else 0.0
        )
    return out


# ----------------------------------------------------------------------
# CSV (sampler time series)
# ----------------------------------------------------------------------
def sampler_csv(sampler) -> str:
    """Long-format CSV of every sampled point: ``time_ns,series,value``."""
    lines = ["time_ns,series,value"]
    for at, name, value in sampler.rows():
        lines.append(f"{at},{name},{value:g}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Chrome trace events (Perfetto)
# ----------------------------------------------------------------------
def chrome_trace(recorder, indent: Optional[int] = None) -> str:
    """A run recorder's spans and events as a Chrome trace-event JSON document.

    Retained lifecycle spans become per-stage complete events (``ph: "X"``)
    grouped under one process per client group, one track per request;
    instant events become ``ph: "i"`` events under one process per node.
    The result loads directly in Perfetto / chrome://tracing.
    """
    events: List[dict] = []
    pids: Dict[str, int] = {}

    def pid_of(node: str) -> int:
        if node not in pids:
            pids[node] = len(pids) + 1
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pids[node],
                    "tid": 0,
                    "args": {"name": node},
                }
            )
        return pids[node]

    for (group, request_id), stamps in recorder.finished:
        pid = pid_of(group)
        previous = stamps.get("submit")
        if previous is None:
            continue
        for stage in STAGES[1:]:
            stamped = stamps.get(stage)
            if stamped is None:
                continue
            events.append(
                {
                    "name": stage,
                    "cat": "lifecycle",
                    "ph": "X",
                    "ts": previous / 1_000,
                    "dur": (stamped - previous) / 1_000,
                    "pid": pid,
                    "tid": request_id,
                    "args": {"request": request_id},
                }
            )
            previous = stamped

    for record in recorder.events():
        events.append(
            {
                "name": record.category,
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": record.at / 1_000,
                "pid": pid_of(record.node),
                "tid": 0,
                "args": {"detail": record.detail},
            }
        )

    doc = {"traceEvents": events, "displayTimeUnit": "ns"}
    return json.dumps(doc, indent=indent, sort_keys=True)
