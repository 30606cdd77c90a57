"""Pure-data oracle units: the fuzzer-specific checkers and gating rules.

The shared invariant checkers live in ``repro.consensus.safety`` and are
unit-tested in ``tests/consensus/test_safety_oracles.py``; here we pin
the fuzz-layer pieces: the client-reply cross-check and the rules that
decide which oracles apply to a given scenario.
"""

import pytest

from repro.consensus.safety import SafetyViolation
from repro.fuzz.oracles import (
    _liveness_applicable,
    _speculative_split_possible,
    check_client_replies,
    check_exactly_once,
)
from repro.fuzz.scenario import FaultEvent, Scenario

LOGS = {
    "r0": [(1, "dA"), (2, "dB")],
    "r1": [(1, "dA"), (2, "dB")],
    "r2": [(1, "dA")],
}


def test_matching_completions_pass_and_count():
    completions = [(100, 1, "dA"), (101, 2, "dB")]
    assert check_client_replies(completions, LOGS) == 2


def test_pending_completions_are_skipped():
    # a request still in flight has no (sequence, digest) yet
    assert check_client_replies([(100, None, None)], LOGS) == 0


def test_sequence_nobody_executed_is_a_violation():
    with pytest.raises(SafetyViolation, match="sequence 9"):
        check_client_replies([(100, 9, "dA")], LOGS)


def test_digest_no_honest_replica_executed_is_a_violation():
    with pytest.raises(SafetyViolation, match="'dEvil'"):
        check_client_replies([(100, 1, "dEvil")], LOGS)


def test_faulty_logs_cannot_vouch_for_a_reply():
    logs = {"r0": [(1, "dA")], "r1": [(1, "dEvil")]}
    assert check_client_replies([(100, 1, "dEvil")], logs) == 1
    with pytest.raises(SafetyViolation):
        check_client_replies([(100, 1, "dEvil")], logs, faulty=("r1",))


def test_any_honest_log_may_vouch():
    # speculative logs legally diverge; a reply matching either honest
    # execution is fine (inter-replica agreement is a different oracle)
    logs = {"r0": [(1, "dA")], "r1": [(1, "dB")]}
    assert check_client_replies([(100, 1, "dA"), (101, 1, "dB")], logs) == 2


# ----------------------------------------------------------------------
# exactly-once execution
# ----------------------------------------------------------------------
def test_distinct_requests_pass_and_count():
    executed = {
        "r0": [(1, [("client0", 0), ("client1", 0)]), (2, [("client0", 1)])],
        "r1": [(1, [("client0", 0), ("client1", 0)])],
    }
    assert check_exactly_once(executed) == 5


def test_request_executed_at_two_sequences_is_a_violation():
    executed = {"r0": [(2, [("client0", 0)]), (9, [("client0", 0)])]}
    with pytest.raises(SafetyViolation, match="sequences 2 and 9"):
        check_exactly_once(executed)


def test_request_twice_in_one_batch_is_a_violation():
    with pytest.raises(SafetyViolation, match="twice"):
        check_exactly_once({"r0": [(4, [("client0", 7), ("client0", 7)])]})


def test_faulty_replicas_are_not_held_to_exactly_once():
    executed = {"r3": [(2, [("client0", 0)]), (9, [("client0", 0)])]}
    assert check_exactly_once(executed, faulty=("r3",)) == 0


# ----------------------------------------------------------------------
# oracle gating
# ----------------------------------------------------------------------
_TWO_FACED = FaultEvent(kind="byzantine", target="r0",
                        policy="two-faced-primary")


def test_speculative_split_needs_speculation_and_equivocation():
    assert _speculative_split_possible(
        Scenario(protocol="zyzzyva", events=(_TWO_FACED,))
    )
    assert _speculative_split_possible(
        Scenario(protocol="poe", events=(_TWO_FACED,))
    )
    # PBFT never executes before agreement: divergence is always a bug
    assert not _speculative_split_possible(
        Scenario(protocol="pbft", events=(_TWO_FACED,))
    )
    # a non-equivocating fault cannot legally split speculative logs
    assert not _speculative_split_possible(
        Scenario(
            protocol="zyzzyva",
            events=(FaultEvent(kind="byzantine", target="r1",
                               policy="conflicting-voter"),),
        )
    )


def test_liveness_gated_off_outside_the_contract():
    assert _liveness_applicable(Scenario())
    crash_backup = FaultEvent(kind="crash", target="r1", at_ms=30.0)
    assert _liveness_applicable(Scenario(events=(crash_backup,)))
    # dropped messages are never retransmitted
    drop = FaultEvent(kind="drop-link", src="r1", dst="r2", probability=0.5)
    assert not _liveness_applicable(Scenario(events=(crash_backup, drop)))
    # more than f faults voids the BFT guarantee
    two_crashes = (crash_backup, FaultEvent(kind="crash", target="r2"))
    assert not _liveness_applicable(Scenario(events=two_crashes))
    # a faulted view-0 primary can stall view 0; the view-change rescue
    # operates beyond the fuzz window
    assert not _liveness_applicable(Scenario(events=(_TWO_FACED,)))
    # injected defects are allowed to wedge the deployment
    assert not _liveness_applicable(Scenario(bug="weak-commit-quorum"))
