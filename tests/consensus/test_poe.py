"""Tests for the PoE (Proof-of-Execution) extension protocol."""

import pytest

from repro.consensus import NotPrimaryError, QuorumConfig
from repro.consensus.base import ExecuteReady
from repro.consensus.poe import PoeReplica, Propose, Support
from repro.consensus.safety import check_execution_consistency
from repro.sim.rng import DeterministicRNG

from tests.consensus.harness import Cluster, make_request


def test_single_request_executes_everywhere():
    cluster = Cluster(4, protocol="poe")
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == [(1, request.digest)]


def test_two_phases_only():
    """PoE per request: n-1 proposes + n broadcasts of support = one
    quadratic phase, strictly between Zyzzyva's linear and PBFT's two
    quadratic phases."""
    poe = Cluster(4, protocol="poe")
    poe.propose(make_request("client0", 1))
    poe.run()
    pbft = Cluster(4, protocol="pbft")
    pbft.propose(make_request("client0", 1))
    pbft.run()
    zyz = Cluster(4, protocol="zyzzyva")
    zyz.propose(make_request("client0", 1))
    zyz.run()

    def delivered(cluster):
        return sum(
            replica.rejected_messages for replica in cluster.replicas.values()
        )

    # count wire messages instead: re-run with counting
    def wire_count(protocol):
        cluster = Cluster(4, protocol=protocol)
        count = [0]
        original = cluster.deliver_one

        def counting():
            if cluster.wire:
                count[0] += 1
            return original()

        cluster.deliver_one = counting
        cluster.propose(make_request("client0", 1))
        cluster.run()
        return count[0]

    zyz_messages = wire_count("zyzzyva")
    poe_messages = wire_count("poe")
    pbft_messages = wire_count("pbft")
    assert zyz_messages < poe_messages < pbft_messages


def test_ordered_execution_many_requests():
    cluster = Cluster(7, protocol="poe")
    requests = [make_request("client0", i) for i in range(1, 9)]
    for request in requests:
        cluster.propose(request)
    cluster.run()
    check_execution_consistency(cluster.executed)
    assert all(len(log) == 8 for log in cluster.executed.values())


def test_reordered_delivery_safe():
    rng = DeterministicRNG(9)
    for _ in range(5):
        cluster = Cluster(4, protocol="poe")
        for i in range(1, 6):
            cluster.propose(make_request("client0", i))
        while cluster.wire:
            cluster.shuffle_wire(rng)
            cluster.deliver_one()
        check_execution_consistency(cluster.executed)


def test_progress_with_f_crashes():
    cluster = Cluster(4, protocol="poe")
    cluster.crashed.add("r3")
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    for rid in ("r0", "r1", "r2"):
        assert cluster.executed[rid] == [(1, request.digest)]


def test_support_quorum_is_commit_sized():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PoeReplica("r1", ids, quorum)
    request = make_request("client0", 1)
    replica.handle_propose(Propose("r0", 0, 1, request.digest, request))
    # own support + r0's would be 2; need 2f+1 = 3 for execution
    actions = replica.handle_support(Support("r0", 0, 1, request.digest))
    assert not any(isinstance(action, ExecuteReady) for action in actions)
    actions = replica.handle_support(Support("r2", 0, 1, request.digest))
    assert any(isinstance(action, ExecuteReady) for action in actions)


def test_equivocation_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PoeReplica("r1", ids, quorum)
    request_a = make_request("client0", 1)
    request_b = make_request("client0", 2)
    replica.handle_propose(Propose("r0", 0, 1, request_a.digest, request_a))
    replica.handle_propose(Propose("r0", 0, 1, request_b.digest, request_b))
    assert replica.slots[1].digest == request_a.digest
    assert replica.rejected_messages == 1


def test_forged_proposal_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PoeReplica("r1", ids, quorum)
    request = make_request("client0", 1)
    forged = Propose("r2", 0, 1, request.digest, request)  # r2 is no primary
    assert replica.handle_propose(forged) == []


def test_conflicting_supports_bucketed_by_digest():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PoeReplica("r1", ids, quorum)
    request = make_request("client0", 1)
    replica.handle_propose(Propose("r0", 0, 1, request.digest, request))
    replica.handle_support(Support("r2", 0, 1, "evil"))
    replica.handle_support(Support("r3", 0, 1, "evil"))
    assert not replica.slots[1].executed


def test_non_primary_cannot_propose():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    backup = PoeReplica("r1", ids, quorum)
    with pytest.raises(NotPrimaryError):
        backup.propose("d", make_request("c", 1))


def test_advance_stable_gc():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    primary = PoeReplica("r0", ids, quorum)
    for i in range(1, 6):
        primary.propose(f"d{i}", make_request("c", i))
    assert primary.advance_stable(3) == 3
    assert sorted(primary.slots) == [4, 5]
