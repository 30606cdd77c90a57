"""Tests for the PBFT state machine: normal case, faults, view change."""

import pytest

from repro.consensus import PbftReplica, QuorumConfig
from repro.consensus.messages import Commit, Prepare, PrePrepare
from repro.consensus.safety import check_execution_consistency
from repro.sim.rng import DeterministicRNG

from tests.consensus.harness import Cluster, make_request


# ----------------------------------------------------------------------
# normal case
# ----------------------------------------------------------------------
def test_single_request_commits_everywhere():
    cluster = Cluster(4)
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == [(1, request.digest)]


def test_many_requests_commit_in_order():
    cluster = Cluster(4)
    requests = [make_request("client0", i) for i in range(1, 11)]
    for request in requests:
        cluster.propose(request)
    cluster.run()
    expected = [(i, requests[i - 1].digest) for i in range(1, 11)]
    for rid in cluster.ids:
        assert cluster.executed[rid] == expected
    check_execution_consistency(cluster.executed)


@pytest.mark.parametrize("n", [4, 7, 16])
def test_commit_at_various_cluster_sizes(n):
    cluster = Cluster(n)
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    assert all(len(log) == 1 for log in cluster.executed.values())


def test_reordered_delivery_still_commits():
    """§4.3: the primary may receive Commit before Prepare from a fast
    replica; arbitrary interleavings must still commit safely."""
    rng = DeterministicRNG(5)
    for trial in range(10):
        cluster = Cluster(4)
        requests = [make_request("client0", i) for i in range(1, 6)]
        for request in requests:
            cluster.propose(request)
        # interleave everything pseudo-randomly
        while cluster.wire:
            cluster.shuffle_wire(rng)
            cluster.deliver_one()
        check_execution_consistency(cluster.executed)
        assert all(len(log) == 5 for log in cluster.executed.values())


def test_out_of_order_consensus_ordered_execution():
    """Consensus for sequence 2 may finish first; execution still runs 1,2."""
    cluster = Cluster(4)
    first = make_request("client0", 1)
    second = make_request("client0", 2)
    cluster.propose(first, sequence=1)
    cluster.propose(second, sequence=2)
    # deliver all messages for sequence 2 first
    cluster.wire = type(cluster.wire)(
        [e for e in cluster.wire if e[2].sequence == 2]
        + [e for e in cluster.wire if e[2].sequence == 1]
    )
    cluster.run()
    for rid in cluster.ids:
        assert [s for s, _ in cluster.executed[rid]] == [1, 2]


def test_commit_proof_carries_quorum():
    cluster = Cluster(4)
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    # check on the engine state instead: every slot committed with 2f+1 votes
    for rid, replica in cluster.replicas.items():
        slot = replica.slots[1]
        assert slot.committed
        assert len(slot.commits[request.digest]) >= cluster.quorum.commit_quorum


# ----------------------------------------------------------------------
# fault tolerance (crash)
# ----------------------------------------------------------------------
def test_commits_with_f_crashed_backups():
    cluster = Cluster(4)
    cluster.crashed.add("r3")  # f = 1
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    live = [rid for rid in cluster.ids if rid not in cluster.crashed]
    for rid in live:
        assert cluster.executed[rid] == [(1, request.digest)]


def test_no_commit_with_more_than_f_crashes():
    cluster = Cluster(4)
    cluster.crashed.update({"r2", "r3"})  # 2 > f = 1
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == []


def test_16_replicas_tolerate_5_failures():
    cluster = Cluster(16)
    for rid in ("r11", "r12", "r13", "r14", "r15"):
        cluster.crashed.add(rid)
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    live = [rid for rid in cluster.ids if rid not in cluster.crashed]
    assert all(cluster.executed[rid] == [(1, request.digest)] for rid in live)


# ----------------------------------------------------------------------
# byzantine behaviour
# ----------------------------------------------------------------------
def test_forged_preprepare_from_backup_rejected():
    cluster = Cluster(4)
    request = make_request("client0", 1)
    forged = PrePrepare("r1", 0, 1, request.digest, request)  # r1 is not primary
    actions = cluster.replicas["r2"].handle_preprepare(forged)
    assert actions == []
    assert cluster.replicas["r2"].rejected_messages == 1


def test_primary_prepare_vote_rejected():
    cluster = Cluster(4)
    message = Prepare("r0", 0, 1, "digest")  # r0 is the primary
    actions = cluster.replicas["r1"].handle_prepare(message)
    assert actions == []


def test_equivocating_digest_votes_do_not_mix():
    """A byzantine replica voting for a different digest must not help the
    honest digest reach quorum."""
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r1", ids, quorum)
    request = make_request("client0", 1)
    replica.handle_preprepare(PrePrepare("r0", 0, 1, request.digest, request))
    # r2 votes honestly; byzantine r3 votes for another digest
    replica.handle_prepare(Prepare("r2", 0, 1, request.digest))
    replica.handle_prepare(Prepare("r3", 0, 1, "evil-digest"))
    slot = replica.slots[1]
    assert not slot.sent_commit or len(slot.prepares[request.digest]) >= 2
    # honest digest has exactly 2 votes (self + r2) = 2f, so commit fires;
    # the point is the evil vote sits in a separate bucket
    assert slot.prepares["evil-digest"] == {"r3"}


def test_duplicate_votes_counted_once():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r0", ids, quorum)  # primary
    request = make_request("client0", 1)
    replica.make_preprepare(1, request.digest, request)
    for _ in range(5):
        replica.handle_prepare(Prepare("r1", 0, 1, request.digest))
    slot = replica.slots[1]
    assert len(slot.prepares[request.digest]) == 1
    assert not slot.sent_commit


def test_commit_quorum_requires_2f_plus_1():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r1", ids, quorum)
    request = make_request("client0", 1)
    replica.handle_preprepare(PrePrepare("r0", 0, 1, request.digest, request))
    replica.handle_prepare(Prepare("r2", 0, 1, request.digest))  # prepared now
    assert replica.slots[1].sent_commit
    # own commit + r2's = 2 votes: not enough
    replica.handle_commit(Commit("r2", 0, 1, request.digest))
    assert not replica.slots[1].committed
    replica.handle_commit(Commit("r0", 0, 1, request.digest))
    assert replica.slots[1].committed


def test_equivocating_primary_first_proposal_wins():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r1", ids, quorum)
    request_a = make_request("client0", 1)
    request_b = make_request("client0", 2)
    replica.handle_preprepare(PrePrepare("r0", 0, 1, request_a.digest, request_a))
    replica.handle_preprepare(PrePrepare("r0", 0, 1, request_b.digest, request_b))
    assert replica.slots[1].digest == request_a.digest
    assert replica.rejected_messages == 1


def test_wrong_view_messages_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r1", ids, quorum)
    request = make_request("client0", 1)
    # view 3 has primary r3
    assert replica.handle_preprepare(
        PrePrepare("r3", 3, 1, request.digest, request)
    ) == []
    assert replica.handle_prepare(Prepare("r2", 3, 1, request.digest)) == []
    assert replica.handle_commit(Commit("r2", 3, 1, request.digest)) == []


def test_sequence_window_rejects_far_future():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r1", ids, quorum, sequence_window=10)
    request = make_request("client0", 1)
    actions = replica.handle_preprepare(
        PrePrepare("r0", 0, 999, request.digest, request)
    )
    assert actions == []


# ----------------------------------------------------------------------
# checkpoint GC integration
# ----------------------------------------------------------------------
def test_advance_stable_garbage_collects_slots():
    cluster = Cluster(4)
    for i in range(1, 6):
        cluster.propose(make_request("client0", i))
    cluster.run()
    replica = cluster.replicas["r0"]
    assert len(replica.slots) == 5
    dropped = replica.advance_stable(3)
    assert dropped == 3
    assert sorted(replica.slots) == [4, 5]
    assert replica.advance_stable(3) == 0  # idempotent


def test_next_sequence_stays_above_proposed_stable_and_seen():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    primary = PbftReplica("r0", ids, quorum)
    request = make_request("client0", 1)
    primary.make_preprepare(5, request.digest, request)
    assert primary.next_sequence == 6
    primary.advance_stable(9)
    assert primary.next_sequence == 10
    message, _ = primary.propose(request.digest, request)
    assert message.sequence == 10 and primary.next_sequence == 11
    # a backup that saw votes up to sequence 7 sequences above them once
    # a view change makes it primary
    backup = PbftReplica("r1", ids, quorum)
    backup.handle_prepare(Prepare("r2", 0, 7, "digest"))
    backup._enter_view(1)
    assert backup.propose(request.digest, request)[0].sequence == 8


# ----------------------------------------------------------------------
# view change
# ----------------------------------------------------------------------
def test_view_change_replaces_crashed_primary():
    cluster = Cluster(4)
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.crashed.add("r0")  # primary dies before consensus completes
    cluster.run()
    # no progress: fire timers at the backups
    for rid in ("r1", "r2", "r3"):
        cluster.fire_timer(rid, 1)
    cluster.run()
    for rid in ("r1", "r2", "r3"):
        replica = cluster.replicas[rid]
        assert replica.view == 1
        assert not replica.in_view_change
        assert replica.primary_of(replica.view) == "r1"


def test_view_change_preserves_prepared_request():
    """A request prepared before the view change must commit in the new
    view with the same digest (no forgotten work)."""
    cluster = Cluster(4)
    request = make_request("client0", 1)
    cluster.propose(request)
    # let prepares flow but block commits, so slots prepare everywhere
    # then crash the primary
    commits_blocked = []

    def tamper(src, dst, message):
        if message.kind == "commit":
            commits_blocked.append(message)
            return None
        return message

    cluster.tamper = tamper
    cluster.run()
    cluster.tamper = None
    cluster.crashed.add("r0")
    for rid in ("r1", "r2", "r3"):
        cluster.fire_timer(rid, 1)
    cluster.run()
    for rid in ("r1", "r2", "r3"):
        assert cluster.executed[rid] == [(1, request.digest)], rid
    check_execution_consistency(cluster.executed, faulty=["r0"])


def test_timer_fire_after_commit_is_noop():
    cluster = Cluster(4)
    request = make_request("client0", 1)
    cluster.propose(request)
    cluster.run()
    cluster.fire_timer("r1", 1)
    cluster.run()
    assert cluster.replicas["r1"].view == 0


def test_stale_view_change_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r1", ids, quorum)
    from repro.consensus.messages import ViewChange

    stale = ViewChange("r2", 0, 0, ())
    assert replica.handle_view_change(stale) == []
    assert replica.rejected_messages == 1


def test_new_view_from_wrong_primary_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r2", ids, quorum)
    from repro.consensus.messages import NewView

    bogus = NewView("r3", 1, ("r0", "r1", "r3"), ())  # view 1 primary is r1
    assert replica.handle_new_view(bogus) == []
    assert replica.rejected_messages == 1


def test_new_view_without_quorum_rejected():
    quorum = QuorumConfig.for_replicas(4)
    ids = ("r0", "r1", "r2", "r3")
    replica = PbftReplica("r2", ids, quorum)
    from repro.consensus.messages import NewView

    thin = NewView("r1", 1, ("r1",), ())
    assert replica.handle_new_view(thin) == []


def test_consensus_continues_after_view_change():
    cluster = Cluster(4)
    cluster.propose(make_request("client0", 1))
    cluster.crashed.add("r0")
    cluster.run()
    for rid in ("r1", "r2", "r3"):
        cluster.fire_timer(rid, 1)
    cluster.run()
    # new primary r1 proposes a fresh request in view 1
    request = make_request("client0", 2)
    primary = cluster.replicas["r1"]
    sequence = max(primary.slots, default=0) + 1
    _msg, actions = primary.make_preprepare(sequence, request.digest, request)
    cluster._apply("r1", actions)
    cluster.run()
    for rid in ("r1", "r2", "r3"):
        assert (sequence, request.digest) in cluster.executed[rid]
