"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import itertools

import pytest

from metrics import longest_gap, per_txn, served_fraction, speed_scaled
from tracing import Instrumentation, SpanTracer, process_span_name


# -- outage ------------------------------------------------------------------
def test_outage_is_longest_gap_between_completions():
    assert longest_gap([10, 12, 30, 31, 38], start=0, end=40) == 18


def test_outage_counts_the_window_edges():
    # nothing until 25 after the window opens; nothing in the last 30
    assert longest_gap([25, 30, 40], start=0, end=70) == 30
    assert longest_gap([25, 30, 40], start=0, end=60) == 25


def test_outage_of_a_silent_window_is_the_whole_window():
    assert longest_gap([], start=100, end=350) == 250


def test_outage_ignores_completions_outside_the_window_and_order():
    assert longest_gap([90, 5, 150, 120, 400], start=100, end=200) == 50


def test_outage_rejects_an_inverted_window():
    with pytest.raises(ValueError):
        longest_gap([], start=10, end=5)


# -- normalisation -----------------------------------------------------------
def test_served_fraction_counts_refusals_as_attempts():
    assert served_fraction(6661, 9) == pytest.approx(6661 / 6670)
    assert served_fraction(100, 0) == 1.0
    assert served_fraction(0, 0) == 0.0


def test_served_fraction_rejects_negative_counts():
    with pytest.raises(ValueError):
        served_fraction(-1, 0)


def test_host_time_is_normalised_per_committed_transaction():
    # 2 s of host time for 10,000 transactions is 200 µs each, and a model
    # change that doubles the transactions in the same host time halves it
    assert per_txn(2.0e6, 10_000) == pytest.approx(200.0)
    assert per_txn(2.0e6, 20_000) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        per_txn(1.0, 0)


def test_host_time_is_scaled_by_the_probe_speed():
    # the probe ran 25% slower than nominal, so the same work would have
    # taken 20% less host time at nominal speed
    assert speed_scaled(2.0, probe_s=0.010, nominal_s=0.008) == pytest.approx(1.6)
    assert speed_scaled(2.0, probe_s=0.008, nominal_s=0.008) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speed_scaled(1.0, probe_s=0.0, nominal_s=0.008)


# -- spans -------------------------------------------------------------------
def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_child_spans():
    #   root   0 ───────────────────────── 100
    #   a        10 ──────── 50
    #   a.x         20 ─ 30
    #   b                       60 ── 90
    tracer = SpanTracer(clock=_fake_clock([0, 10, 20, 30, 50, 60, 90, 100]))
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("a.x", request=("client0", 7))
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.self_ns == {"root": 100 - 40 - 30, "a": 40 - 10, "a.x": 10, "b": 30}
    assert tracer.layer_self_ns("a") == 40
    assert tracer.calls_of("a") == 2
    assert tracer.depth == 0
    assert tracer.spans == [
        ["root", 0, 100, -1, None],
        ["a", 10, 50, 0, None],
        ["a.x", 20, 30, 1, ("client0", 7)],
        ["b", 60, 90, 0, None],
    ]


def test_spans_beyond_the_retention_cap_are_aggregated_only():
    tracer = SpanTracer(clock=itertools.count().__next__, keep=2)
    for _ in range(5):
        tracer.enter("s")
        tracer.exit()
    assert len(tracer.spans) == 2
    assert tracer.calls["s"] == 5
    assert tracer.self_ns["s"] == 5


@pytest.mark.parametrize("process, span", [
    ("r3.batch-1", "core.batch"),
    ("r0.worker", "core.worker"),
    ("r0.execute", "core.execute"),
    ("r12.input-2", "core.input"),
    ("r1.output-0", "core.output"),
    ("client4.inbox", "core.client"),
    ("r0.tx-nic", "net.nic"),
    ("client0.rx-nic", "net.nic"),
    ("r2.checkpoint", "core.other"),
    ("r0.vc-dispatch", "core.other"),
])
def test_process_span_names(process, span):
    assert process_span_name(process) == span


def test_instrumentation_restores_every_patched_function():
    from repro.crypto.schemes import Ed25519Scheme
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process

    before = (Simulator.schedule, Process.resume, Ed25519Scheme.__dict__.get("check"))
    tracer = SpanTracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.activate()
    try:
        sim = Simulator()

        def proc():
            yield 5

        sim.spawn(proc(), name="r0.worker")
        sim.run()
    finally:
        instrumentation.deactivate()
    after = (Simulator.schedule, Process.resume, Ed25519Scheme.__dict__.get("check"))
    assert after == before
    assert tracer.calls["core.worker"] == 2
    assert tracer.calls["sim.schedule"] >= 2  # spawn + timeout, at least
    assert tracer.calls["sim.run"] == 1
    assert tracer.depth == 0
