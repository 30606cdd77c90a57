"""Tests for the closed-loop client manager."""


from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis, seconds


def test_closed_loop_keeps_in_flight_constant(small_config):
    system = ResilientDBSystem(small_config)
    system.run()
    for group in system.client_groups:
        # every logical client has exactly one request outstanding
        assert len(group.pending) == group.logical_clients


def test_clients_split_across_groups():
    config = SystemConfig(
        num_replicas=4,
        num_clients=10,
        client_groups=3,
        batch_size=4,
        ycsb_records=100,
        warmup=millis(10),
        measure=millis(20),
    )
    system = ResilientDBSystem(config)
    sizes = [group.logical_clients for group in system.client_groups]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_request_ids_unique_per_group(small_config):
    system = ResilientDBSystem(small_config)
    system.run()
    group = system.client_groups[0]
    assert group.next_request_id >= group.completed_requests


def test_latency_recorded_per_completion(small_config):
    system = ResilientDBSystem(small_config)
    result = system.run()
    histogram = system.metrics.histogram("request_latency")
    assert histogram.count == result.completed_requests
    assert histogram.mean_seconds() > 0


def test_pbft_retransmission_reaches_new_primary():
    """Crash the primary: without retransmission clients stall forever;
    with it, requests reach the new primary after the view change."""
    config = SystemConfig(
        num_replicas=4,
        num_clients=16,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(20),
        measure=seconds(4),
        view_change_timeout=millis(200),
        client_retransmit=millis(400),
    )
    system = ResilientDBSystem(config)
    system.crash_primary(at_ns=millis(100))
    result = system.run()
    assert result.completed_requests > 0
    # survivors moved to view 1
    for rid in ("r1", "r2", "r3"):
        assert system.replicas[rid].engine.view >= 1
    system.validate_safety()


def test_zyzzyva_timeout_is_harmless_when_healthy(small_config):
    config = small_config.with_options(
        protocol="zyzzyva", zyzzyva_client_timeout=millis(5)
    )
    system = ResilientDBSystem(config)
    result = system.run()
    # responses normally beat even a tight timer at this scale; any that
    # don't still complete through the certificate path
    assert result.completed_requests > 100
    system.validate_safety()


def test_group_workloads_are_independent_streams(small_config):
    system = ResilientDBSystem(small_config)
    keys_per_group = []
    for group in system.client_groups[:2]:
        txn = group.workload.next_transaction(group.name)
        keys_per_group.append(txn.ops[0].key)
    # different RNG forks -> almost surely different first keys
    assert keys_per_group[0] != keys_per_group[1]


def test_retransmit_timers_cancelled_on_completion():
    """A completed request's retransmit timer must never fire again —
    cancellation is explicit, not just a no-op lookup on a popped id."""
    config = SystemConfig(
        num_replicas=4,
        num_clients=8,
        client_groups=2,
        batch_size=4,
        ycsb_records=100,
        warmup=millis(10),
        measure=millis(40),
        client_retransmit=millis(2),
    )
    system = ResilientDBSystem(config)
    stale_firings = []
    for group in system.client_groups:
        original = group._on_retransmit

        def wrapper(request_id, _group=group, _original=original):
            if request_id not in _group.pending:
                stale_firings.append((_group.name, request_id))
            else:
                _original(request_id)

        group._on_retransmit = wrapper
    result = system.run()
    assert result.completed_requests > 0
    # with ~1ms completion latency, every 2ms timer belongs to an already
    # answered request; cancellation means none of them ever fires
    assert stale_firings == []


def test_no_duplicate_completion_after_quorum():
    """Force real retransmissions (timer below the round-trip) and check
    a retransmitted request still completes exactly once, with replies
    consistent with what replicas executed."""
    config = SystemConfig(
        num_replicas=4,
        num_clients=64,
        client_groups=2,
        batch_size=8,
        ycsb_records=200,
        warmup=millis(10),
        measure=millis(40),
        client_retransmit=millis(1),
        record_completions=True,
    )
    system = ResilientDBSystem(config)
    retransmissions = []
    for group in system.client_groups:
        original = group._on_retransmit

        def wrapper(request_id, _group=group, _original=original):
            if request_id in _group.pending:
                retransmissions.append(request_id)
            _original(request_id)

        group._on_retransmit = wrapper
    result = system.run()
    assert result.completed_requests > 0
    # the tight timer genuinely retransmitted in-flight requests...
    assert retransmissions
    # ...yet no request completed twice, and replies match execution
    for group in system.client_groups:
        completed_ids = [record[0] for record in group.completion_log]
        assert len(completed_ids) == len(set(completed_ids))
    system.validate_safety()


def test_aimd_window_limits_in_flight_requests():
    config = SystemConfig(
        num_replicas=4,
        num_clients=32,
        client_groups=2,
        batch_size=4,
        ycsb_records=100,
        warmup=millis(10),
        measure=millis(30),
        client_window_initial=2,
    )
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.completed_requests > 0
    for group in system.client_groups:
        # the window bounded concurrency below the logical-client count
        assert len(group.pending) <= group.window.size
        # healthy network, no congestion: additive increase opened it up
        assert group.window.size > 2
        assert group.window.decreases == 0
