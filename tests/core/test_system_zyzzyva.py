"""Full-system tests: Zyzzyva deployments, including the failure collapse."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


@pytest.fixture
def zyz_config(small_config):
    return small_config.with_options(
        protocol="zyzzyva", zyzzyva_client_timeout=millis(20)
    )


def test_fast_path_without_failures(zyz_config):
    system = ResilientDBSystem(zyz_config)
    result = system.run()
    assert result.completed_requests > 100
    # every request completed on the 3f+1 fast path
    assert result.slow_path_completions == 0
    assert result.fast_path_completions == result.completed_requests


def test_execution_order_consistent(zyz_config):
    system = ResilientDBSystem(zyz_config)
    system.run()
    assert system.validate_safety() > 10


def test_history_hashes_agree(zyz_config):
    system = ResilientDBSystem(zyz_config)
    system.run()
    lengths = {
        rid: len(replica.ledger.executed_log)
        for rid, replica in system.replicas.items()
    }
    # replicas at the same execution point share the same history hash
    by_length = {}
    for rid, replica in system.replicas.items():
        by_length.setdefault(lengths[rid], set()).add(replica.ledger.history_hash)
    for hashes in by_length.values():
        assert len(hashes) == 1


def test_one_crash_forces_slow_path(zyz_config):
    system = ResilientDBSystem(zyz_config)
    system.crash_replicas(1)
    result = system.run()
    assert result.completed_requests > 0
    assert result.fast_path_completions == 0
    assert result.slow_path_completions == result.completed_requests
    # every completion waited out the client timer first
    assert result.latency_mean_s >= 0.020


def test_certificate_bookkeeping_ends_with_its_request(zyz_config):
    """With a crashed backup every request takes the certificate path;
    its slow-path entry is dropped when the request completes, so only
    requests still in flight hold one."""
    system = ResilientDBSystem(zyz_config)
    system.crash_replicas(1)
    result = system.run()
    assert result.slow_path_completions > 100
    for group in system.client_groups:
        assert set(group._certified) <= set(group.pending)
        waiting = {
            request_id
            for requests in group._awaiting_commit.values()
            for request_id in requests
        }
        assert waiting == set(group._certified)
        for sequence, requests in group._awaiting_commit.items():
            assert requests, sequence
            assert all(
                group._certified[request_id] == sequence
                for request_id in requests
            )


def test_crash_collapse_vs_healthy(zyz_config):
    healthy = ResilientDBSystem(zyz_config).run()
    crashed_system = ResilientDBSystem(zyz_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # Fig. 17: a single failure devastates Zyzzyva
    assert degraded.throughput_txns_per_s < healthy.throughput_txns_per_s / 2
    assert degraded.latency_mean_s > 2 * healthy.latency_mean_s


def test_pbft_unaffected_by_same_crash(small_config):
    healthy = ResilientDBSystem(small_config).run()
    crashed_system = ResilientDBSystem(small_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # Fig. 17: PBFT barely moves (no phase needs more than 2f+1 of 3f+1)
    assert degraded.throughput_txns_per_s > 0.8 * healthy.throughput_txns_per_s


def test_zyzzyva_matches_pbft_when_healthy(small_config, zyz_config):
    """Same pipeline, no failures: the single-phase protocol is at least
    as fast as the three-phase one."""
    pbft = ResilientDBSystem(small_config).run()
    zyz = ResilientDBSystem(zyz_config).run()
    assert zyz.throughput_txns_per_s >= 0.9 * pbft.throughput_txns_per_s


def test_fewer_protocol_messages_than_pbft(small_config, zyz_config):
    pbft_system = ResilientDBSystem(small_config)
    pbft = pbft_system.run()
    zyz_system = ResilientDBSystem(zyz_config)
    zyz = zyz_system.run()
    pbft_per_request = pbft.messages_sent / max(1, pbft.completed_requests)
    zyz_per_request = zyz.messages_sent / max(1, zyz.completed_requests)
    assert zyz_per_request < pbft_per_request


def test_timeout_without_certificate_quorum_resends_the_request():
    """A lossy client->primary link: when the client timer finds fewer
    than 2f+1 matching spec-responses, the client resends the request to
    every replica instead of only re-arming its timer."""
    config = SystemConfig(
        protocol="zyzzyva",
        num_replicas=4,
        num_clients=32,
        client_groups=4,
        batch_size=6,
        ycsb_records=300,
        warmup=millis(20),
        measure=millis(100),
        seed=7,
        zyzzyva_client_timeout=millis(5),
    )
    system = ResilientDBSystem(config)
    system.faults.drop_link("client0", "r0", probability=0.3)
    system.run()
    lossy = system.client_groups[0]
    # before the resend, the dropped requests stalled their logical
    # clients for good: client0 completed 14 requests in this setup
    assert lossy.completed_requests > 200
    assert all(
        group.completed_requests > 200 for group in system.client_groups[1:]
    )
    system.validate_safety()
