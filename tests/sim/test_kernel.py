"""Tests for the discrete-event simulator core."""

import pytest

from repro.sim import Simulator, Timeout, micros, seconds
from repro.sim.kernel import SimulationError
from repro.sim.process import ProcessFailure


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, seen.append, "c")
    sim.schedule(10, seen.append, "a")
    sim.schedule(20, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_same_tick_events_run_in_scheduling_order():
    sim = Simulator()
    seen = []
    for label in ("first", "second", "third"):
        sim.schedule(5, seen.append, label)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.schedule(500, lambda: None)
    sim.run(until=200)
    assert sim.now == 200
    assert sim.pending_events == 1


def test_run_until_with_no_events_advances_clock():
    sim = Simulator()
    sim.run(until=seconds(2))
    assert sim.now == seconds(2)


def test_process_timeout_advances_clock():
    sim = Simulator()
    trace = []

    def proc():
        yield Timeout(micros(5))
        trace.append(sim.now)
        yield micros(10)  # bare int is also a timeout
        trace.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert trace == [micros(5), micros(15)]


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(10)
        return 42

    def parent():
        value = yield sim.spawn(child())
        results.append(value)

    sim.spawn(parent())
    sim.run()
    assert results == [42]


def test_joining_finished_process_resumes_immediately():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(1)
        return "done"

    def parent(child_process):
        yield Timeout(100)  # child long finished
        value = yield child_process
        results.append((sim.now, value))

    child_process = sim.spawn(child())
    sim.spawn(parent(child_process))
    sim.run()
    assert results == [(100, "done")]


def test_process_exception_propagates_as_failure():
    sim = Simulator()

    def bad():
        yield Timeout(1)
        raise ValueError("boom")

    sim.spawn(bad(), name="bad")
    with pytest.raises(ProcessFailure) as excinfo:
        sim.run()
    assert isinstance(excinfo.value.original, ValueError)


def test_yielding_garbage_is_an_error():
    sim = Simulator()

    def bad():
        yield "not an effect"

    sim.spawn(bad())
    with pytest.raises(ProcessFailure):
        sim.run()


def test_stop_halts_loop():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(100):
            yield Timeout(10)
            seen.append(sim.now)
            if len(seen) == 3:
                sim.stop()

    sim.spawn(proc())
    sim.run()
    assert seen == [10, 20, 30]
    # run can be resumed afterwards
    sim.run(until=60)
    assert len(seen) == 6


def test_determinism_same_seed_same_trace():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        trace = []

        def proc(name):
            for _ in range(5):
                yield Timeout(sim.rng.randint(1, 100))
                trace.append((sim.now, name))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        return trace

    assert build_and_run(7) == build_and_run(7)
    assert build_and_run(7) != build_and_run(8)


@pytest.mark.parametrize("effect", ["x", 1.5, None])
def test_yielding_non_effect_names_the_process(effect):
    sim = Simulator()

    def bad():
        yield effect

    sim.spawn(bad(), name="confused")
    with pytest.raises(ProcessFailure, match="confused") as excinfo:
        sim.run()
    assert isinstance(excinfo.value.original, TypeError)


def test_join_running_and_finished_process():
    """Joiners of a running process wake when it finishes; joining it after
    it finished resumes at once with the same result."""
    sim = Simulator()
    results = []

    def child():
        yield Timeout(50)
        return "done"

    def joiner(label, child_process, delay):
        yield Timeout(delay)
        value = yield child_process
        results.append((label, sim.now, value))

    child_process = sim.spawn(child())
    sim.spawn(joiner("early", child_process, 10))
    sim.spawn(joiner("also-early", child_process, 20))
    sim.spawn(joiner("late", child_process, 80))
    sim.run()
    assert results == [
        ("early", 50, "done"),
        ("also-early", 50, "done"),
        ("late", 80, "done"),
    ]
