"""Tests for the discrete-event simulator core."""

from collections import defaultdict
from heapq import heappop, heappush

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

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


def test_run_until_before_now_rejected():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


# ----------------------------------------------------------------------
# the same-tick lane keeps the (time, sequence) order
# ----------------------------------------------------------------------
def test_peek_and_pending_events_count_lane_entries():
    sim = Simulator()
    sim.schedule(5, lambda: None)
    assert (sim.peek(), sim.pending_events) == (5, 1)
    sim.schedule(0, lambda: None)
    sim.schedule(0, lambda: None)
    assert (sim.peek(), sim.pending_events) == (0, 3)
    sim.run(until=0)  # drains the lane, leaves the clock at 0
    assert (sim.now, sim.peek(), sim.pending_events) == (0, 5, 1)


def test_stopped_run_keeps_the_rest_of_the_tick():
    sim = Simulator()
    seen = []
    sim.schedule(0, lambda: (seen.append("a"), sim.stop()))
    sim.schedule(0, seen.append, "b")
    sim.schedule(3, seen.append, "c")
    sim.run(until=10)  # stops after "a"; the clock still jumps to 10
    assert (seen, sim.now, sim.pending_events, sim.peek()) == (["a"], 10, 2, 0)
    sim.schedule(0, seen.append, "d")  # at 10, after everything pending
    sim.run()
    assert seen == ["a", "b", "c", "d"]


class _HeapReference:
    """The kernel's ordering contract as one binary heap of
    ``(time, sequence)`` entries, with no same-tick lane."""

    def __init__(self):
        self.now = 0
        self._heap = []
        self._sequence = 0
        self._stopped = False

    def schedule(self, delay, fn, *args):
        self._sequence += 1
        heappush(self._heap, (self.now + delay, self._sequence, fn, args))

    def stop(self):
        self._stopped = True

    def run(self, until=None):
        self._stopped = False
        while self._heap and not self._stopped:
            when, _seq, fn, args = self._heap[0]
            if until is not None and when > until:
                self.now = until
                return
            heappop(self._heap)
            self.now = when
            fn(*args)
        if until is not None and self.now < until:
            self.now = until

    def peek(self):
        return self._heap[0][0] if self._heap else None

    @property
    def pending_events(self):
        return len(self._heap)


@st.composite
def kernel_programs(draw):
    """A forest of callbacks: each node is scheduled, with its own delay,
    by an earlier node or from outside ``run()`` before one of the run
    steps; some nodes call ``stop()``."""
    steps = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
            min_size=1,
            max_size=5,
        )
    )
    size = draw(st.integers(min_value=1, max_value=40))
    nodes = []
    for index in range(size):
        parent = draw(st.integers(min_value=-1, max_value=index - 1))
        delay = draw(st.sampled_from((0, 0, 1, 5)))
        step = draw(st.integers(min_value=0, max_value=len(steps) - 1))
        stops = draw(st.integers(min_value=0, max_value=9)) == 0
        nodes.append((parent, delay, step, stops))
    return steps, nodes


def _execute(sim, program):
    """Run ``program`` on ``sim``; returns every observable the kernel's
    ordering contract covers."""
    steps, nodes = program
    children = defaultdict(list)
    for index, (parent, _delay, step, _stops) in enumerate(nodes):
        children[(parent, step if parent < 0 else None)].append(index)
    trace = []

    def fire(index):
        trace.append((index, sim.now))
        if nodes[index][3]:
            sim.stop()
        for child in children[(index, None)]:
            sim.schedule(nodes[child][1], fire, child)

    observed = []
    for step, until in enumerate(steps):
        for root in children[(-1, step)]:
            sim.schedule(nodes[root][1], fire, root)
        observed.append((sim.now, sim.peek(), sim.pending_events))
        sim.run(until=None if until is None else sim.now + until)
        observed.append((sim.now, sim.peek(), sim.pending_events))
    return trace, observed


@settings(max_examples=300)
@given(program=kernel_programs())
def test_lane_kernel_matches_heap_reference(program):
    assert _execute(Simulator(), program) == _execute(_HeapReference(), program)
