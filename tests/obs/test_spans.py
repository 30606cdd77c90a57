"""Tests for transaction-lifecycle spans (repro.obs.spans)."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.obs.spans import STAGES, SpanRecorder, validate_stage_order
from repro.sim.clock import millis


def small_config(**overrides):
    defaults = dict(
        num_replicas=4,
        num_clients=32,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(20),
        measure=millis(40),
        real_auth_tokens=False,
        apply_state=False,
        lifecycle_spans=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


# ----------------------------------------------------------------------
# unit behaviour
# ----------------------------------------------------------------------
def test_basic_span_lifecycle():
    recorder = SpanRecorder(enabled=True)
    key = ("client0", 1)
    recorder.begin(key, 100)
    recorder.stamp(key, "input", 150)
    recorder.stamp(key, "batch", 200)
    recorder.finish(key, 300)
    table = recorder.stage_table()
    assert list(table) == ["input", "batch", "reply", "total"]
    assert table["input"]["mean_s"] == pytest.approx(50e-9)
    assert table["batch"]["mean_s"] == pytest.approx(50e-9)
    assert table["reply"]["mean_s"] == pytest.approx(100e-9)
    assert table["total"]["mean_s"] == pytest.approx(200e-9)
    assert recorder.spans_completed == 1
    assert recorder.open_spans == 0


def test_first_stamp_wins():
    recorder = SpanRecorder(enabled=True)
    key = ("client0", 1)
    recorder.begin(key, 0)
    recorder.stamp(key, "input", 10)
    recorder.stamp(key, "input", 99)  # retransmission must not move it
    recorder.finish(key, 100)
    assert recorder.stage_table()["input"]["mean_s"] == pytest.approx(10e-9)


def test_stamp_and_finish_without_begin_are_noops():
    recorder = SpanRecorder(enabled=True)
    recorder.stamp(("nobody", 7), "input", 10)
    recorder.finish(("nobody", 7), 20)
    assert recorder.stage_table() == {}
    assert recorder.spans_completed == 0


def test_batch_link_fans_out_and_is_released_on_execute():
    recorder = SpanRecorder(enabled=True)
    keys = (("client0", 1), ("client1", 5))
    for key in keys:
        recorder.begin(key, 0)
    recorder.link_batch(42, keys)
    recorder.stamp_sequence(42, "propose", 10)
    recorder.stamp_sequence(42, "commit", 20)
    recorder.stamp_sequence(42, "execute", 30)
    assert 42 not in recorder._by_sequence  # link released at execute
    recorder.stamp_sequence(42, "execute", 99)  # late stamp: no-op
    for key in keys:
        recorder.finish(key, 40)
    table = recorder.stage_table()
    assert table["propose"]["count"] == 2
    assert table["execute"]["mean_s"] == pytest.approx(10e-9)


def test_abandon_drops_without_recording():
    recorder = SpanRecorder(enabled=True)
    recorder.begin(("client0", 1), 0)
    recorder.abandon(("client0", 1))
    assert recorder.open_spans == 0
    assert recorder.spans_abandoned == 1
    assert recorder.stage_table() == {}


def test_reset_window_clears_aggregates_but_keeps_open_spans():
    recorder = SpanRecorder(enabled=True, keep_finished=10)
    recorder.begin(("a", 1), 0)
    recorder.finish(("a", 1), 10)
    recorder.begin(("a", 2), 5)
    recorder.reset_window()
    assert recorder.stage_table() == {}
    assert not recorder.finished
    assert recorder.open_spans == 1  # in-flight request survives the reset
    recorder.finish(("a", 2), 30)
    assert recorder.stage_table()["total"]["count"] == 1


def test_keep_finished_bounds_retention():
    recorder = SpanRecorder(enabled=True, keep_finished=2)
    for i in range(5):
        recorder.begin(("a", i), i)
        recorder.finish(("a", i), i + 10)
    assert len(recorder.finished) == 2
    assert [key for key, _stamps in recorder.finished] == [("a", 3), ("a", 4)]


def test_validate_stage_order():
    assert validate_stage_order({"submit": 0, "input": 5, "reply": 9}) is None
    violation = validate_stage_order({"submit": 10, "input": 5})
    assert violation is not None and "input" in violation


# ----------------------------------------------------------------------
# stage-ordering invariants on a real run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["pbft", "zyzzyva", "poe"])
def test_system_stage_table_per_protocol(protocol):
    system = ResilientDBSystem(
        small_config(protocol=protocol, trace=True)
    )
    result = system.run()
    table = result.stage_latency
    assert result.completed_requests > 0
    # every protocol reaches these hand-offs
    for stage in ("input", "batch", "execute", "reply", "total"):
        assert stage in table, f"{protocol} missing stage {stage}"
    # zyzzyva's fast path has no prepare phase
    if protocol == "zyzzyva":
        assert "prepare" not in table
    else:
        assert "prepare" in table
    # table keys follow pipeline order, with "total" last
    order = [stage for stage in STAGES[1:] if stage in table] + ["total"]
    assert list(table) == order
    # the total-span histogram is the request-latency histogram: same
    # completions, same timestamps
    assert table["total"]["count"] == result.completed_requests
    assert table["total"]["mean_s"] == result.latency_mean_s
    # every retained span satisfies the ordering invariant
    assert len(system.spans.finished) > 0
    for _key, stamps in system.spans.finished:
        assert validate_stage_order(stamps) is None, stamps


def test_stage_latency_table_renders():
    system = ResilientDBSystem(small_config())
    result = system.run()
    text = result.stage_latency_table()
    assert "stage latency" in text
    assert "total" in text and "p99" in text


def test_spans_disabled_collects_nothing():
    system = ResilientDBSystem(small_config(lifecycle_spans=False))
    result = system.run()
    assert result.completed_requests > 0
    assert result.stage_latency == {}
    assert system.spans.open_spans == 0
    assert result.stage_latency_table() == ""
