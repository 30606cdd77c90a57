"""Tests for the run recorder's instant-event trace (repro.obs.spans)."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.obs.spans import SpanRecorder, TraceRecord, first_divergence
from repro.sim.clock import millis


def test_record_and_query():
    recorder = SpanRecorder(enabled=True, keep_events=10)
    recorder.event(10, "r0", "execute", "seq=1")
    recorder.event(20, "r1", "execute", "seq=1")
    recorder.event(30, "r0", "checkpoint", "stable at 10")
    assert len(recorder.events()) == 3
    assert len(recorder.events(node="r0")) == 2
    assert len(recorder.events(category="execute")) == 2
    assert len(recorder.events(since=15)) == 2
    assert recorder.events(node="r1", category="execute")[0].at == 20
    line = recorder.events()[-1].format()
    assert "r0" in line and "checkpoint" in line and "stable at 10" in line


def test_disabled_tracer_records_nothing():
    # spans on, trace off: the recorder aggregates but keeps no events
    recorder = SpanRecorder(enabled=True)
    recorder.event(1, "r0", "execute", "x")
    assert recorder.events() == []
    assert recorder.events_dropped == 0


def test_bounded_capacity_drops_oldest():
    recorder = SpanRecorder(enabled=True, keep_events=3)
    for i in range(5):
        recorder.event(i, "r0", "tick", str(i))
    assert len(recorder.events()) == 3
    assert recorder.events_dropped == 2
    assert recorder.events()[0].detail == "2"


def test_capacity_validation():
    with pytest.raises(ValueError):
        SpanRecorder(keep_events=-1)


def test_first_divergence():
    a = [TraceRecord(1, "r0", "x", "1"), TraceRecord(2, "r0", "x", "2")]
    b = [TraceRecord(1, "r0", "x", "1"), TraceRecord(2, "r0", "x", "DIFFERENT")]
    assert first_divergence(a, b) == 1
    assert first_divergence(a, list(a)) is None
    assert first_divergence([], []) is None


def test_first_divergence_length_mismatch_is_a_divergence():
    # a truncated trace must not compare equal to its longer original
    a = [TraceRecord(1, "r0", "x", "1"), TraceRecord(2, "r0", "x", "2")]
    assert first_divergence(a, a[:1]) == 1
    assert first_divergence(a[:1], a) == 1
    assert first_divergence([], a) == 0


def _small(**overrides):
    params = dict(
        num_replicas=4,
        num_clients=32,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(20),
        measure=millis(60),
        trace=True,
    )
    params.update(overrides)
    return SystemConfig(**params)


def test_system_level_trace():
    system = ResilientDBSystem(_small())
    system.run()
    executions = system.spans.events(category="execute")
    assert len(executions) > 10
    # traces from every replica
    assert {record.node for record in executions} == set(system.replica_ids)
    # the warm-up window reset keeps events: the trace covers the whole run
    assert min(record.at for record in executions) < millis(20)


def test_trace_is_replayable():
    first, second = ResilientDBSystem(_small()), ResilientDBSystem(_small())
    first.run()
    second.run()
    assert first_divergence(first.spans.events(), second.spans.events()) is None


def test_primary_crash_records_view_changes():
    system = ResilientDBSystem(
        _small(client_retransmit=millis(4), view_change_timeout=millis(12))
    )
    system.crash_primary(at_ns=millis(30))
    system.run()
    entered = system.spans.events(category="view-change")
    assert {record.node for record in entered} >= {"r1", "r2", "r3"}
    assert all(record.detail.startswith("entered view") for record in entered)
