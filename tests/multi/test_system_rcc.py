"""Full-system tests: multi-primary (RCC) deployments end to end."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.multi import check_unified_execution, unify_commit_logs
from repro.sim.clock import millis


def rcc_config(**overrides):
    defaults = dict(
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=8,
        ycsb_records=500,
        warmup=millis(50),
        measure=millis(100),
        protocol="rcc",
        num_primaries=2,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def test_end_to_end_progress_and_safety():
    system = ResilientDBSystem(rcc_config())
    result = system.run()
    assert result.completed_requests > 100
    assert result.throughput_txns_per_s > 0
    prefix = system.validate_safety()
    assert prefix > 0


def test_both_lanes_contribute_to_the_global_order():
    system = ResilientDBSystem(rcc_config())
    system.run()
    for replica in system.replicas.values():
        engine = replica.engine
        assert engine.frontier[0] > 5
        assert engine.frontier[1] > 5
        # the executed log is exactly the round-robin unification of the
        # replica's own per-lane commit logs
        checked = check_unified_execution(
            replica.ledger.executed_log, engine.commit_log, 2
        )
        assert checked == len(replica.ledger.executed_log) > 10


def test_honest_replicas_agree_per_lane():
    system = ResilientDBSystem(rcc_config())
    system.run()
    combined = {0: [], 1: []}
    for replica in system.replicas.values():
        for lane, entries in replica.engine.commit_log.items():
            combined[lane].extend(entries)
    # a digest conflict inside any lane would raise SafetyViolation
    unified = unify_commit_logs(combined, 2)
    assert len(unified) > 20


def test_rcc_m1_degenerates_to_pbft_behaviour():
    system = ResilientDBSystem(rcc_config(num_primaries=1))
    result = system.run()
    assert result.completed_requests > 100
    assert system.validate_safety() > 0
    for replica in system.replicas.values():
        assert list(replica.engine.commit_log) == [0]


def test_crashed_lane_primary_wedges_only_its_lane():
    """Crash instance 1's primary mid-run: lane 1 view-changes, lane 0
    stays in view 0, and the merge (plus retransmitted clients) resumes."""
    config = rcc_config(
        view_change_timeout=millis(12), client_retransmit=millis(25)
    )
    system = ResilientDBSystem(config)
    system.faults.crash_at("r1", millis(20))
    result = system.run()
    assert result.completed_requests > 100
    live = [rid for rid in system.replicas if rid != "r1"]
    for rid in live:
        engine = system.replicas[rid].engine
        assert engine.instances[0].view == 0  # lane 0 never suspected
        assert engine.instances[1].view >= 1  # lane 1 rescued
    # the merge kept executing long after the crash
    watermark = max(system.replicas[rid].ledger.executed_through for rid in live)
    assert watermark > 100
    for rid in live:
        replica = system.replicas[rid]
        check_unified_execution(
            replica.ledger.executed_log, replica.engine.commit_log, 2
        )
    assert system.validate_safety(faulty=("r1",)) > 0


def test_deterministic_same_seed():
    results = [
        ResilientDBSystem(rcc_config(seed=7)).run() for _ in range(2)
    ]
    assert results[0].completed_requests == results[1].completed_requests
    assert results[0].throughput_txns_per_s == results[1].throughput_txns_per_s
    assert results[0].chain_height == results[1].chain_height


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_client_steering_matches_the_coordinator_lane(m):
    """Clients and replicas share one steering formula, so a request
    lands on the primary of the lane every replica forwards it to."""
    system = ResilientDBSystem(rcc_config(num_primaries=m))
    coordinator = system.replicas["r0"].engine
    for group in system.client_groups:
        for request_id in range(0, 60, 7):
            lane = coordinator.steer_instance(group.name, request_id)
            assert group._steer_target(request_id) == system.replica_ids[lane]


def _run_counting_proposals(num_primaries, num_replicas):
    """A deployment whose 3 ms retransmit fires before the first
    execution; returns the system and how often each request was
    proposed, over every lane of every replica."""
    from collections import Counter

    system = ResilientDBSystem(
        rcc_config(
            num_primaries=num_primaries,
            num_replicas=num_replicas,
            num_clients=12,
            client_groups=2,
            ops_per_txn=2,
            checkpoint_txns=96,
            ycsb_records=300,
            warmup=millis(25),
            measure=millis(30),
            seed=39,
            client_retransmit=millis(3),
            record_completions=True,
        )
    )
    proposed = Counter()
    for replica in system.replicas.values():

        def spy(digest, batch, propose=replica.engine.propose):
            proposed.update((r.sender, r.request_id) for r in batch.requests)
            return propose(digest, batch)

        replica.engine.propose = spy
    system.run()
    return system, proposed


def test_a_request_admitted_in_two_lanes_executes_once():
    # with m = n every replica leads a lane, so the client's fallback
    # replica is another lane's primary, which admits the request into
    # its own lane while the first copy is still in flight
    from repro.fuzz.oracles import check_exactly_once

    system, proposed = _run_counting_proposals(num_primaries=4, num_replicas=4)
    assert any(count > 1 for count in proposed.values())
    executed = {
        rid: replica.ledger.executed_requests
        for rid, replica in system.replicas.items()
    }
    assert check_exactly_once(executed) > 0
    system.validate_safety()


def test_fallback_retransmissions_go_to_replicas_that_lead_no_lane():
    # m < n: the fallback rotates over the replicas that lead no lane,
    # which forward the request to its lane's primary instead of
    # proposing a second copy in a lane of their own
    system, proposed = _run_counting_proposals(num_primaries=3, num_replicas=7)
    assert proposed and max(proposed.values()) == 1
    system.validate_safety()
