"""Tests for SimEvent/Timer and the metrics registry."""

import pytest

from repro.sim import SimEvent, Simulator, Timeout, micros, seconds
from repro.sim.events import TIMEOUT, Timer
from repro.sim.metrics import LatencyHistogram, MetricsRegistry


# ----------------------------------------------------------------------
# SimEvent
# ----------------------------------------------------------------------
def test_event_wakes_waiter_with_value():
    sim = Simulator()
    event = SimEvent(sim)
    got = []

    def waiter():
        got.append((yield event))

    sim.spawn(waiter())
    sim.schedule(100, event.trigger, "payload")
    sim.run()
    assert got == ["payload"]


def test_event_first_trigger_wins():
    sim = Simulator()
    event = SimEvent(sim)
    assert event.trigger("first") is True
    assert event.trigger("second") is False
    assert event.value == "first"


def test_waiting_on_triggered_event_returns_immediately():
    sim = Simulator()
    event = SimEvent(sim)
    event.trigger("early")
    got = []

    def waiter():
        got.append((yield event))

    sim.spawn(waiter())
    sim.run()
    assert got == ["early"]


def test_response_beats_timer():
    """Zyzzyva's client pattern: response-vs-timeout race, first one wins."""
    sim = Simulator()
    event = SimEvent(sim)
    got = []

    def waiter():
        got.append((yield event))

    sim.spawn(waiter())
    sim.schedule(micros(100), event.trigger, TIMEOUT)
    sim.schedule(micros(40), event.trigger, "response")
    sim.run()
    assert got == ["response"]


# ----------------------------------------------------------------------
# Timer
# ----------------------------------------------------------------------
def test_timer_fires():
    sim = Simulator()
    fired = []
    Timer(sim, 100, fired.append, "x")
    sim.run()
    assert fired == ["x"]


def test_timer_cancel_suppresses_fire():
    sim = Simulator()
    fired = []
    timer = Timer(sim, 100, fired.append, "x")
    sim.schedule(50, timer.cancel)
    sim.run()
    assert fired == []
    assert not timer.active


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_counter_and_throughput():
    sim = Simulator()
    metrics = MetricsRegistry(sim)
    counter = metrics.counter("txns")

    def generator():
        for _ in range(10):
            yield Timeout(micros(100))
            counter.increment(50)

    sim.spawn(generator())
    metrics.begin_measurement()
    sim.run(until=micros(1000))
    # 500 txns in 1ms -> 500K/s
    assert metrics.throughput_per_second("txns") == pytest.approx(500_000)


def test_begin_measurement_resets_counters():
    sim = Simulator()
    metrics = MetricsRegistry(sim)
    counter = metrics.counter("txns")
    counter.increment(99)
    sim.schedule(seconds(1), lambda: None)
    sim.run()
    metrics.begin_measurement()
    assert counter.value == 0
    assert metrics.window_start == seconds(1)


def test_histogram_statistics():
    histogram = LatencyHistogram("latency")
    for value in [micros(100), micros(200), micros(300), micros(400)]:
        histogram.record(value)
    assert histogram.count == 4
    assert histogram.mean_seconds() == pytest.approx(250e-6)
    assert histogram.percentile_seconds(50) == pytest.approx(200e-6)
    assert histogram.percentile_seconds(100) == pytest.approx(400e-6)
    assert histogram.max_seconds() == pytest.approx(400e-6)


def test_histogram_empty_and_bad_percentile():
    histogram = LatencyHistogram("latency")
    assert histogram.mean_seconds() == 0.0
    assert histogram.percentile_seconds(99) == 0.0
    histogram.record(1)
    with pytest.raises(ValueError):
        histogram.percentile_seconds(0)
    with pytest.raises(ValueError):
        histogram.percentile_seconds(101)


def test_histogram_reservoir_under_cap_is_exact():
    """With fewer samples than the cap, behaviour is identical to uncapped."""
    capped = LatencyHistogram("latency", max_samples=100)
    exact = LatencyHistogram("latency")
    for value in [micros(100), micros(200), micros(300), micros(400)]:
        capped.record(value)
        exact.record(value)
    assert capped.count == exact.count == 4
    assert capped.samples == exact.samples
    for quantile in (50, 99, 100):
        assert capped.percentile_seconds(quantile) == exact.percentile_seconds(
            quantile
        )


def test_histogram_reservoir_caps_storage_keeps_exact_aggregates():
    histogram = LatencyHistogram("latency", max_samples=64)
    values = [micros(i + 1) for i in range(1000)]
    for value in values:
        histogram.record(value)
    assert len(histogram.samples) == 64
    # count / sum / mean / max are running values, never sampled
    assert histogram.count == 1000
    assert histogram.mean_seconds() == pytest.approx(
        sum(values) / len(values) / 1e9
    )
    assert histogram.max_seconds() == pytest.approx(micros(1000) / 1e9)
    # percentile comes from the reservoir: approximate but in-range
    assert micros(1) / 1e9 <= histogram.percentile_seconds(50) <= micros(1000) / 1e9


def test_histogram_reservoir_is_deterministic():
    def fill():
        histogram = LatencyHistogram("latency", max_samples=32)
        for i in range(500):
            histogram.record(micros(i))
        return list(histogram.samples)

    assert fill() == fill()


def test_histogram_reservoir_reset_restores_initial_state():
    histogram = LatencyHistogram("latency", max_samples=32)
    for i in range(500):
        histogram.record(micros(i))
    first = list(histogram.samples)
    histogram.reset()
    assert histogram.count == 0 and histogram.samples == []
    for i in range(500):
        histogram.record(micros(i))
    # the reservoir RNG is re-seeded on reset, so refills are identical
    assert histogram.samples == first


def test_histogram_validates_max_samples():
    with pytest.raises(ValueError):
        LatencyHistogram("latency", max_samples=0)


def test_counter_factory_idempotent():
    sim = Simulator()
    metrics = MetricsRegistry(sim)
    assert metrics.counter("a") is metrics.counter("a")
    assert metrics.histogram("h") is metrics.histogram("h")


def test_rng_fork_is_stable_and_independent():
    from repro.sim.rng import DeterministicRNG

    parent_one = DeterministicRNG(42)
    parent_two = DeterministicRNG(42)
    child_one = parent_one.fork("clients")
    child_two = parent_two.fork("clients")
    assert [child_one.randint(0, 1000) for _ in range(10)] == [
        child_two.randint(0, 1000) for _ in range(10)
    ]
    other = DeterministicRNG(42).fork("network")
    assert [other.randint(0, 1000) for _ in range(10)] != [
        DeterministicRNG(42).fork("clients").randint(0, 1000) for _ in range(10)
    ]
