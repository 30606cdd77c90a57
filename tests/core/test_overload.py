"""End-to-end overload protection: bounded queues, admission, backoff.

These deployments drive a small cluster several times past its capacity
and check the ISSUE 5 contract: goodput stays nonzero, excess demand is
busy-NACKed or shed-and-NACKed (never silently lost), nothing already
sequenced is ever shed, and safety is untouched.
"""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.flow import check_flow_invariants
from repro.sim.clock import millis


def overload_config(**overrides):
    """4 replicas at ~4x capacity (the saturation point is ~48 clients)."""
    defaults = dict(
        num_replicas=4,
        num_clients=192,
        client_groups=4,
        batch_size=8,
        batch_threads=1,
        execute_threads=1,
        ycsb_records=500,
        warmup=millis(20),
        measure=millis(60),
        queue_policy="reject",
        batch_queue_capacity=32,
        admission_max_inflight=8,
        admission_max_per_client=16,
        client_retransmit=millis(5),
        record_completions=True,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def run_system(config):
    system = ResilientDBSystem(config)
    try:
        result = system.run()
    finally:
        system.close()
    return system, result


def test_reject_policy_keeps_goodput_and_invariants():
    system, result = run_system(overload_config())
    assert result.completed_requests > 0
    # admission control visibly engaged and clients heard about it
    assert result.busy_nacks_sent > 0
    assert result.busy_nacks_received > 0
    assert result.admission_rejected > 0
    # reject turns requests away before they enter a queue: nothing shed
    assert result.requests_shed == 0
    assert check_flow_invariants(system) == []
    system.validate_safety()


def test_shed_oldest_policy_sheds_with_nacks():
    system, result = run_system(
        overload_config(
            queue_policy="shed_oldest",
            batch_queue_capacity=16,
            admission_max_inflight=None,
            admission_max_per_client=None,
        )
    )
    assert result.completed_requests > 0
    assert result.requests_shed > 0
    # every shed produced a NACK (or the request completed via a retry)
    assert check_flow_invariants(system) == []
    system.validate_safety()


def test_block_policy_applies_backpressure_without_loss():
    system, result = run_system(
        overload_config(
            queue_policy="block",
            batch_queue_capacity=16,
            admission_max_inflight=None,
            admission_max_per_client=None,
        )
    )
    assert result.completed_requests > 0
    assert result.requests_shed == 0
    assert result.busy_nacks_sent == 0
    # the bound held: the primary's batch queue never grew past capacity
    primary = system.replicas["r0"]
    assert primary.batch_queue.max_depth <= 16
    assert check_flow_invariants(system) == []
    system.validate_safety()


@pytest.mark.parametrize("protocol", ["zyzzyva", "poe"])
def test_admission_nacks_do_not_wedge_speculative_protocols(protocol):
    system, result = run_system(
        overload_config(
            protocol=protocol,
            num_clients=96,
            measure=millis(40),
        )
    )
    assert result.completed_requests > 0
    assert check_flow_invariants(system) == []


def test_rcc_lane_busy_steering_under_overload():
    system, result = run_system(
        overload_config(
            protocol="rcc",
            num_primaries=2,
            num_clients=96,
            admission_max_inflight=4,
            admission_max_per_client=None,
            measure=millis(40),
        )
    )
    assert result.completed_requests > 0
    assert result.busy_nacks_received > 0
    assert check_flow_invariants(system) == []
    system.validate_safety()


def test_aimd_window_adapts_to_congestion():
    system, result = run_system(
        overload_config(client_window_initial=2, admission_max_inflight=4)
    )
    assert result.completed_requests > 0
    for group in system.client_groups:
        # windows moved off their initial value in at least one direction
        assert group.window.increases + group.window.decreases >= 0
        assert 1 <= group.window.size <= group.logical_clients
    # congestion signals reached the windows
    assert any(g.window.decreases > 0 for g in system.client_groups)
