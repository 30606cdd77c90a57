"""Tests for the simulated CPU scheduler."""

import pytest

from repro.sim import CpuScheduler, Simulator, Timeout, micros


def test_cpu_single_core_serialises_work():
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=1)
    done = []

    def worker(name):
        yield cpu.run(micros(100), name)
        done.append((sim.now, name))

    sim.spawn(worker("t1"))
    sim.spawn(worker("t2"))
    sim.run()
    assert done == [(micros(100), "t1"), (micros(200), "t2")]


def test_cpu_two_cores_run_in_parallel():
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=2)
    done = []

    def worker(name):
        yield cpu.run(micros(100), name)
        done.append((sim.now, name))

    sim.spawn(worker("t1"))
    sim.spawn(worker("t2"))
    sim.run()
    assert done == [(micros(100), "t1"), (micros(100), "t2")]


def test_cpu_zero_cost_work_is_free():
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=1)
    done = []

    def worker():
        yield cpu.run(0, "t")
        done.append(sim.now)

    sim.spawn(worker())
    sim.run()
    assert done == [0]
    assert cpu.busy_ns.get("t", 0) == 0


def test_cpu_negative_cost_rejected():
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=1)
    with pytest.raises(ValueError):
        cpu.run(-5, "t")


def test_saturation_accounting():
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=2)

    def busy_thread():
        # 50% duty cycle for 1ms
        for _ in range(5):
            yield cpu.run(micros(100), "busy")
            yield Timeout(micros(100))

    sim.spawn(busy_thread())
    sim.run()
    assert cpu.saturation("busy") == pytest.approx(0.5, abs=0.01)
    assert cpu.saturation("never-ran") == 0.0


def test_saturation_window_reset():
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=1)

    def worker():
        yield cpu.run(micros(500), "t")  # warmup burst
        cpu.reset_window()
        for _ in range(4):
            yield cpu.run(micros(25), "t")
            yield Timeout(micros(75))

    sim.spawn(worker())
    sim.run()
    # post-reset: 100µs busy over 400µs window
    assert cpu.saturation("t") == pytest.approx(0.25, abs=0.01)


def test_work_conserving_fifo_backlog():
    """With more threads than cores, total completion time equals total
    work divided by core count (no idle cores while work waits)."""
    sim = Simulator()
    cpu = CpuScheduler(sim, cores=2)
    completions = []

    def worker(name):
        yield cpu.run(micros(100), name)
        completions.append(sim.now)

    for i in range(6):
        sim.spawn(worker(f"t{i}"))
    sim.run()
    assert max(completions) == micros(300)  # 600µs of work on 2 cores
