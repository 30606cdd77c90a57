"""Observability must be free when disabled and inert when enabled.

Two properties:

1. **Guard idiom** — with observability disabled, hot paths never call
   into the recorder at all (the ``spans.enabled`` check is the entire
   cost).  Verified by making every recorder entry point explode.
2. **Result invariance** — spans, sampling and tracing only *read* the
   simulation, so enabling all of them yields bit-identical
   ``ExperimentResult`` numbers for the same seed.
"""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.obs.spans import SpanRecorder
from repro.sim.clock import millis


def config(**overrides):
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
        seed=11,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


RESULT_FIELDS = (
    "throughput_txns_per_s",
    "throughput_ops_per_s",
    "latency_mean_s",
    "latency_p50_s",
    "latency_p99_s",
    "latency_max_s",
    "completed_requests",
    "completed_txns",
    "primary_saturation",
    "backup_saturation",
    "messages_sent",
    "bytes_sent",
    "dropped_messages",
    "chain_height",
    "stable_checkpoint",
)


def run_once(**overrides):
    system = ResilientDBSystem(config(**overrides))
    try:
        return system.run()
    finally:
        system.close()


def test_disabled_observability_never_calls_the_recorder(monkeypatch):
    """The guard test: every hook must check ``enabled`` before calling in."""

    def explode(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("observability hook ran while disabled")

    for method in (
        "begin", "stamp", "stamp_sequence", "link_batch", "finish", "event"
    ):
        monkeypatch.setattr(SpanRecorder, method, explode)
    result = run_once()  # all observability off by default
    assert result.completed_requests > 0


@pytest.mark.parametrize("protocol", ["pbft", "zyzzyva"])
def test_enabling_observability_changes_no_results(protocol):
    baseline = run_once(protocol=protocol)
    observed = run_once(
        protocol=protocol,
        lifecycle_spans=True,
        sample_interval=millis(5),
        trace=True,
    )
    for field in RESULT_FIELDS:
        assert getattr(baseline, field) == getattr(observed, field), field
    assert observed.stage_latency and not baseline.stage_latency


def test_fixed_seed_is_bit_identical_across_runs():
    first = run_once()
    second = run_once()
    for field in RESULT_FIELDS:
        assert getattr(first, field) == getattr(second, field), field
