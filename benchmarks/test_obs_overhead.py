"""Guard benchmark: disabled observability must stay (nearly) free.

Every recorder hook tests one flag — one ``spans.enabled`` attribute
read on each hot path when everything is off.  This benchmark
pins that promise with wall-clock numbers: a run with spans, sampling
and tracing all disabled must not be measurably slower than the seed,
and fully-enabled observability must stay within a generous factor of
the disabled run (it records timestamps, it does not change the
simulation).
"""

import time

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def _config(**overrides):
    defaults = dict(
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=10,
        ycsb_records=1_000,
        warmup=millis(40),
        measure=millis(120),
        real_auth_tokens=False,
        apply_state=False,
        seed=3,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def _wall_clock(**overrides) -> float:
    system = ResilientDBSystem(_config(**overrides))
    started = time.perf_counter()
    result = system.run()
    elapsed = time.perf_counter() - started
    assert result.completed_requests > 0
    system.close()
    return elapsed


def test_disabled_observability_overhead_guard(benchmark):
    benchmark(
        lambda: _wall_clock()  # all observability off: the baseline cost
    )


def test_enabled_observability_stays_cheap():
    # best-of-3 to damp scheduler noise; the bound is deliberately loose —
    # this is a regression tripwire, not a microbenchmark
    disabled = min(_wall_clock() for _ in range(3))
    enabled = min(
        _wall_clock(
            lifecycle_spans=True,
            sample_interval=millis(5),
            trace=True,
        )
        for _ in range(3)
    )
    assert enabled < disabled * 3.0, (
        f"observability overhead too high: {enabled:.3f}s vs "
        f"{disabled:.3f}s disabled"
    )
