"""Full-system tests for the PoE extension protocol."""

import pytest

from repro.core import ResilientDBSystem


@pytest.fixture
def poe_config(small_config):
    return small_config.with_options(protocol="poe")


def test_end_to_end_progress(poe_config):
    system = ResilientDBSystem(poe_config)
    result = system.run()
    assert result.completed_requests > 100
    assert system.validate_safety() > 10


def test_clients_complete_on_commit_quorum(poe_config):
    """PoE clients need 2f+1 matching speculative responses, not 3f+1."""
    system = ResilientDBSystem(poe_config)
    result = system.run()
    assert result.fast_path_completions == result.completed_requests
    assert result.slow_path_completions == 0


def test_one_crash_does_not_collapse(poe_config):
    healthy = ResilientDBSystem(poe_config).run()
    crashed_system = ResilientDBSystem(poe_config)
    crashed_system.crash_replicas(1)
    degraded = crashed_system.run()
    # unlike Zyzzyva, no timeout path: throughput stays in family
    assert degraded.throughput_txns_per_s > 0.8 * healthy.throughput_txns_per_s
    assert degraded.latency_mean_s < 2 * healthy.latency_mean_s


def test_blocks_synthesise_quorum_certificates(poe_config):
    system = ResilientDBSystem(poe_config)
    system.run()
    primary = system.replicas["r0"]
    primary.ledger.chain.validate()
    head = primary.ledger.chain.head()
    assert len(head.commit_certificate) >= system.quorum.commit_quorum
