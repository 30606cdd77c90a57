"""Tests for the Zyzzyva state machine: speculation, history, slow path."""

import pytest

from repro.consensus import NotPrimaryError, QuorumConfig, ZyzzyvaReplica
from repro.consensus.base import ExecuteReady, SendTo
from repro.consensus.messages import CommitCertificate, LocalCommit, OrderRequest
from repro.consensus.safety import check_execution_consistency
from repro.consensus.zyzzyva import GENESIS_HISTORY, extend_history

from tests.consensus.harness import Cluster, make_request


def test_primary_orders_and_executes_speculatively():
    cluster = Cluster(4, protocol="zyzzyva")
    request = make_request("client0", 1)
    cluster.propose(request)
    # the primary executed before any network round-trip
    assert cluster.executed["r0"] == [(1, request.digest)]
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == [(1, request.digest)]


def test_single_linear_phase():
    """Zyzzyva sends exactly n-1 protocol messages per request (one
    OrderRequest to each backup) — no prepare or commit traffic."""
    cluster = Cluster(4, protocol="zyzzyva")
    cluster.propose(make_request("client0", 1))
    assert len(cluster.wire) == 3
    assert all(entry[2].kind == "order-request" for entry in cluster.wire)
    cluster.run()
    assert not cluster.wire


def test_sequences_are_dense_and_ordered():
    cluster = Cluster(4, protocol="zyzzyva")
    requests = [make_request("client0", i) for i in range(1, 8)]
    for request in requests:
        cluster.propose(request)
    cluster.run()
    expected = [(i, requests[i - 1].digest) for i in range(1, 8)]
    for rid in cluster.ids:
        assert cluster.executed[rid] == expected
    check_execution_consistency(cluster.executed)


def test_history_hash_chains():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    primary = ZyzzyvaReplica("r0", ids, quorum)
    first, _ = primary.propose("d1", make_request("c", 1))
    second, _ = primary.propose("d2", make_request("c", 2))
    assert first.history_hash == extend_history(GENESIS_HISTORY, "d1")
    assert second.history_hash == extend_history(first.history_hash, "d2")
    assert first.history_hash != second.history_hash


def test_non_primary_cannot_order():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    backup = ZyzzyvaReplica("r1", ids, quorum)
    with pytest.raises(NotPrimaryError):
        backup.propose("d", make_request("c", 1))


def test_order_request_from_non_primary_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    backup = ZyzzyvaReplica("r2", ids, quorum)
    request = make_request("c", 1)
    forged = OrderRequest("r1", 0, 1, request.digest, "h", request)
    assert backup.handle_order_request(forged) == []
    assert backup.rejected_messages == 1


def test_duplicate_order_request_executes_once():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    backup = ZyzzyvaReplica("r1", ids, quorum)
    request = make_request("c", 1)
    message = OrderRequest("r0", 0, 1, request.digest, "h", request)
    first = backup.handle_order_request(message)
    second = backup.handle_order_request(message)
    assert len(first) == 1 and isinstance(first[0], ExecuteReady)
    assert second == []


def test_equivocating_order_request_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    backup = ZyzzyvaReplica("r1", ids, quorum)
    request_a = make_request("c", 1)
    request_b = make_request("c", 2)
    backup.handle_order_request(OrderRequest("r0", 0, 1, request_a.digest, "h", request_a))
    backup.handle_order_request(OrderRequest("r0", 0, 1, request_b.digest, "h", request_b))
    assert backup.accepted[1] == request_a.digest
    assert backup.rejected_messages == 1


def test_speculative_flag_set():
    cluster = Cluster(4, protocol="zyzzyva")
    request = make_request("client0", 1)
    primary = cluster.replicas["r0"]
    _msg, actions = primary.propose(request.digest, request)
    execute = [a for a in actions if isinstance(a, ExecuteReady)][0]
    assert execute.speculative
    assert execute.commit_proof == ()


# ----------------------------------------------------------------------
# slow path: commit certificates
# ----------------------------------------------------------------------
def test_commit_certificate_acknowledged():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = ZyzzyvaReplica("r1", ids, quorum)
    certificate = CommitCertificate("client0", 0, 5, "result", ("r0", "r1", "r2"))
    actions = replica.handle_commit_certificate(certificate)
    assert len(actions) == 1
    action = actions[0]
    assert isinstance(action, SendTo)
    assert action.dst == "client0"
    assert isinstance(action.message, LocalCommit)
    assert action.message.sequence == 5
    assert replica.max_committed == 5


def test_thin_certificate_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = ZyzzyvaReplica("r1", ids, quorum)
    thin = CommitCertificate("client0", 0, 5, "result", ("r0", "r1"))
    assert replica.handle_commit_certificate(thin) == []
    assert replica.max_committed == 0


def test_certificate_with_unknown_responders_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = ZyzzyvaReplica("r1", ids, quorum)
    bogus = CommitCertificate("client0", 0, 5, "result", ("r0", "r1", "intruder"))
    assert replica.handle_commit_certificate(bogus) == []


def test_advance_stable_gc():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    primary = ZyzzyvaReplica("r0", ids, quorum)
    for i in range(1, 6):
        primary.propose(f"d{i}", make_request("c", i))
    assert primary.advance_stable(3) == 3
    assert sorted(primary.accepted) == [4, 5]


def test_sequence_window_rejection():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    backup = ZyzzyvaReplica("r1", ids, quorum, sequence_window=10)
    request = make_request("c", 1)
    far = OrderRequest("r0", 0, 500, request.digest, "h", request)
    assert backup.handle_order_request(far) == []
