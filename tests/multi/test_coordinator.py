"""InstanceCoordinator behaviour over the timing-free MultiCluster bus:
lane leadership, round-robin unification, per-lane view-change isolation,
skip-certificate balancing, steering, and typed proposal errors."""

import pytest

from repro.consensus import NotPrimaryError, ProposalError, QuorumConfig
from repro.consensus.messages import NULL_BATCH_DIGEST
from repro.multi import InstanceCoordinator, check_unified_execution
from repro.multi.unifier import unify_commit_logs

from tests.multi.harness import MultiCluster, make_request


def live(cluster):
    return [rid for rid in cluster.ids if rid not in cluster.crashed]


# ----------------------------------------------------------------------
# leadership and proposing
# ----------------------------------------------------------------------
def test_lane_k_is_led_by_replica_k():
    cluster = MultiCluster(n=4, m=3)
    assert cluster.replicas["r0"].lanes_led() == [0]
    assert cluster.replicas["r1"].lanes_led() == [1]
    assert cluster.replicas["r2"].lanes_led() == [2]
    assert cluster.replicas["r3"].lanes_led() == []
    assert not cluster.replicas["r3"].is_primary


def test_propose_without_leading_any_lane_raises_typed_error():
    cluster = MultiCluster(n=4, m=2)
    request = make_request("c1", 1)
    with pytest.raises(NotPrimaryError):
        cluster.replicas["r3"].propose(request.digest, request)
    # NotPrimaryError is a ProposalError, so hosts can catch the base type
    with pytest.raises(ProposalError):
        cluster.replicas["r3"].propose(request.digest, request)


def test_unified_execution_interleaves_lanes_round_robin():
    cluster = MultiCluster(n=4, m=2)
    a = make_request("c1", 1)
    b = make_request("c2", 1)
    pa = cluster.propose("r0", a)
    pb = cluster.propose("r1", b)
    assert (pa.instance, pa.sequence) == (0, 1)
    assert (pb.instance, pb.sequence) == (1, 2)
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == [(1, a.digest), (2, b.digest)]
        coordinator = cluster.replicas[rid]
        assert coordinator.frontier == [1, 1]
        check_unified_execution(
            cluster.executed[rid], coordinator.commit_log, 2
        )


def test_execution_stalls_on_lane_hole_until_balance_fills_it():
    cluster = MultiCluster(n=4, m=2)
    b = make_request("c2", 1)
    cluster.propose("r1", b)  # lane 1 only: global slot 1 stays empty
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == []
        assert cluster.replicas[rid].frontier == [0, 1]
    # a balance pass on lane 0's primary fills the hole with a null batch
    cluster.balance("r0")
    cluster.run()
    for rid in cluster.ids:
        assert cluster.executed[rid] == [
            (1, NULL_BATCH_DIGEST),
            (2, b.digest),
        ]


def test_balance_is_noop_for_single_instance():
    coordinator = InstanceCoordinator(
        "r0", ("r0", "r1", "r2", "r3"), QuorumConfig.for_replicas(4), 1
    )
    assert coordinator.balance_actions() == []


# ----------------------------------------------------------------------
# view changes stay per-lane
# ----------------------------------------------------------------------
def _wedge_lane1(cluster, batches=4):
    """Crash lane 1's primary and push lane 0 ahead until watchdog
    view-change timers are armed for lane 1 on every live replica."""
    cluster.crashed.add("r1")
    for i in range(batches):
        cluster.propose("r0", make_request("c1", i + 1))
    cluster.run()


def test_watchdog_arms_when_lane_falls_rounds_behind():
    cluster = MultiCluster(n=4, m=2)
    _wedge_lane1(cluster)
    # lane 1's next needed slot is lane seq 1 == global 2
    for rid in live(cluster):
        assert 2 in cluster.timers[rid]


def test_view_change_touches_only_the_wedged_lane():
    cluster = MultiCluster(n=4, m=2)
    _wedge_lane1(cluster)
    cluster.fire_all_timers(2)
    cluster.run()
    for rid in live(cluster):
        coordinator = cluster.replicas[rid]
        assert coordinator.instances[0].view == 0  # lane 0 untouched
        assert coordinator.instances[1].view == 1
        assert not coordinator.in_view_change
    # lane 1's rotation is (r1, r2, r3, r0): view 1 elects r2
    assert cluster.replicas["r2"].lanes_led() == [1]
    assert cluster.replicas["r0"].lanes_led() == [0]


def test_unification_resumes_after_lane_view_change():
    cluster = MultiCluster(n=4, m=2)
    _wedge_lane1(cluster)
    cluster.fire_all_timers(2)
    cluster.run()
    # the new lane-1 primary levels the lanes with skip certificates...
    cluster.balance("r2")
    cluster.run()
    b = make_request("c9", 1)
    cluster.propose("r2", b)
    cluster.balance("r0")  # lane 0 may now trail by one
    cluster.run()
    logs = {}
    for rid in live(cluster):
        coordinator = cluster.replicas[rid]
        executed = cluster.executed[rid]
        # the full 4 lane-0 batches plus lane 1's fillers all execute
        assert len(executed) >= 8
        assert (
            check_unified_execution(executed, coordinator.commit_log, 2)
            == len(executed)
        )
        for lane, entries in coordinator.commit_log.items():
            logs.setdefault(lane, []).extend(entries)
    # and every live replica committed identical per-lane orders
    unify_commit_logs(logs, 2)


def test_timeout_for_committed_slot_is_ignored():
    cluster = MultiCluster(n=4, m=2)
    a = make_request("c1", 1)
    cluster.propose("r0", a)
    cluster.propose("r1", make_request("c2", 1))
    cluster.run()
    for rid in cluster.ids:
        assert cluster.replicas[rid].on_view_change_timeout(1) == []
        assert cluster.replicas[rid].on_view_change_timeout(2) == []
        assert cluster.replicas[rid].instances[0].view == 0


def test_repeated_fires_during_view_change_do_not_flap():
    cluster = MultiCluster(n=4, m=2)
    _wedge_lane1(cluster)
    coordinator = cluster.replicas["r3"]
    cluster.fire_timer("r3", 2)  # starts lane 1's view change
    assert coordinator.instances[1].in_view_change
    # fires while the rescue is in flight are swallowed...
    from repro.consensus import Broadcast

    for _ in range(coordinator.ESCALATE_EVERY - 1):
        assert coordinator.on_view_change_timeout(2) == []
    # ...but the N-th consecutive fire votes again (re-broadcasting the
    # rescue), keeping liveness when the first vote round went nowhere
    actions = coordinator.on_view_change_timeout(2)
    assert any(isinstance(action, Broadcast) for action in actions)
    assert coordinator.instances[0].view == 0  # lane 0 still untouched


# ----------------------------------------------------------------------
# steering
# ----------------------------------------------------------------------
def test_steering_is_deterministic_across_replicas():
    cluster = MultiCluster(n=4, m=3)
    for sender in ("c1", "c2", "kangaroo"):
        for request_id in (1, 2, 99):
            lanes = {
                cluster.replicas[rid].steer_instance(sender, request_id)
                for rid in cluster.ids
            }
            assert len(lanes) == 1
            targets = {
                cluster.replicas[rid].forward_target(sender, request_id)
                for rid in cluster.ids
            }
            assert len(targets) == 1
            # fault-free, the forward target is the steer lane's primary
            assert targets == {f"r{lanes.pop()}"}


def test_forward_target_skips_wedged_lane_primary():
    coordinator = InstanceCoordinator(
        "r0", ("r0", "r1", "r2", "r3"), QuorumConfig.for_replicas(4), 2
    )
    sender, request_id = "c1", 0
    lane = coordinator.steer_instance(sender, request_id)
    assert coordinator.forward_target(sender, request_id) == f"r{lane}"
    coordinator.instances[lane].in_view_change = True
    # mid view change the forward goes to the *next* view's primary
    expected = coordinator.instances[lane].primary_of(1)
    assert coordinator.forward_target(sender, request_id) == expected


# ----------------------------------------------------------------------
# envelope hygiene and checkpoints
# ----------------------------------------------------------------------
def test_out_of_range_instance_is_rejected_at_the_envelope():
    cluster = MultiCluster(n=4, m=2)
    request = make_request("c1", 1)
    proposal, actions = cluster.replicas["r0"].propose(request.digest, request)
    message = proposal.message
    message.instance = 7
    target = cluster.replicas["r1"]
    assert target.handle(message) == []
    assert target.envelope_rejects == 1
    assert target.rejected_messages >= 1


def test_advance_stable_splits_global_horizon_across_lanes():
    cluster = MultiCluster(n=4, m=2)
    for i in range(3):
        cluster.propose("r0", make_request("c1", i + 1))
        cluster.propose("r1", make_request("c2", i + 1))
    cluster.run()
    coordinator = cluster.replicas["r2"]
    assert cluster.executed["r2"] and len(cluster.executed["r2"]) == 6
    coordinator.advance_stable(6)
    # global prefix 6 = lane seqs 3 + 3
    assert coordinator.instances[0].stable_sequence == 3
    assert coordinator.instances[1].stable_sequence == 3
    assert coordinator.frontier == [3, 3]
    # a global horizon mid-round stabilises the lanes asymmetrically
    other = cluster.replicas["r3"]
    other.advance_stable(5)
    assert other.instances[0].stable_sequence == 3
    assert other.instances[1].stable_sequence == 2
