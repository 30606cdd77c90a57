"""Fuzzing the overload-protection machinery (generator + oracle)."""

from repro.core.system import ResilientDBSystem
from repro.fuzz import fuzz_campaign, run_oracle_bank
from repro.fuzz.generator import (
    _overload_knobs,
    generate_overload_scenario,
    generate_scenario,
)
from repro.fuzz.scenario import Scenario
from repro.sim.queues import QUEUE_POLICIES
from repro.sim.rng import DeterministicRNG


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------
def test_overload_generator_is_deterministic():
    assert generate_overload_scenario(5, 3) == generate_overload_scenario(5, 3)
    assert generate_overload_scenario(5, 3) != generate_overload_scenario(5, 4)
    assert generate_overload_scenario(5, 3) != generate_overload_scenario(6, 3)


def test_overload_generator_always_draws_protection_knobs():
    for index in range(20):
        scenario = generate_overload_scenario(1, index)
        assert scenario.has_overload_knobs
        assert scenario.label == f"overload-{index}"
        assert scenario.num_replicas == 4
        assert scenario.num_clients >= 48
        assert scenario.queue_policy in QUEUE_POLICIES
        assert scenario.batch_queue_capacity >= 4
        # shed requests must be recoverable inside the fuzz window
        assert scenario.client_retransmit_ms is not None
        # faults stay within f=1
        assert len(scenario.faulty_replicas) <= scenario.f


def test_mixed_campaign_includes_an_overload_slice():
    drawn = [
        generate_scenario(0, index).has_overload_knobs for index in range(60)
    ]
    # ~18% of scenarios carry protection knobs; 60 draws make a miss
    # astronomically unlikely, and most runs must stay unprotected
    assert any(drawn)
    assert drawn.count(True) < len(drawn) // 2


def test_overload_knobs_never_bound_protocol_queues():
    """Lossy policies may only apply to the batch queue + admission: in
    every overload scenario's deployment, each replica's work,
    checkpoint and output queues and its inbox stay unbounded."""
    for index in range(20):
        scenario = generate_overload_scenario(2, index)
        system = ResilientDBSystem(scenario.to_config())
        for replica in system.replicas.values():
            queues = [
                replica.work_queue,
                replica.checkpoint_queue,
                replica.endpoint.inbox,
                *replica.output_queues,
            ]
            for queue in queues:
                assert queue.capacity is None, queue.name
    rng = DeterministicRNG(4).fork("knobs")
    for _ in range(20):
        knobs = _overload_knobs(rng, batch_size=8)
        assert set(knobs) == {
            "queue_policy",
            "batch_queue_capacity",
            "admission_max_inflight",
            "admission_max_per_client",
            "client_retransmit_ms",
            "client_window_initial",
        }


def test_scenario_overload_knobs_round_trip_json():
    scenario = generate_overload_scenario(7, 0)
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_old_artifacts_without_overload_fields_still_load():
    payload = Scenario(seed=3).to_dict()
    for key in (
        "queue_policy",
        "batch_queue_capacity",
        "admission_max_inflight",
        "admission_max_per_client",
        "client_retransmit_ms",
        "client_window_initial",
    ):
        payload.pop(key)
    loaded = Scenario.from_dict(payload)
    assert loaded.queue_policy == "block"
    assert not loaded.has_overload_knobs


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def _run_small(scenario):
    system = ResilientDBSystem(scenario.to_config())
    system.run()
    return system


def test_overload_oracle_flags_sequenced_shed():
    scenario = Scenario(
        seed=1, num_clients=8, client_groups=1, warmup_ms=10.0, measure_ms=20.0
    )
    system = _run_small(scenario)
    try:
        assert not run_oracle_bank(system, scenario, None)
        # tripwire: pretend r0 shed a request it had already sequenced
        system.replicas["r0"].flow.shed_sequenced.append(("client0", 1))
        violations = run_oracle_bank(system, scenario, None)
    finally:
        system.close()
    assert any(v.oracle == "overload-protection" for v in violations)


def test_overload_oracle_flags_silent_shed():
    scenario = Scenario(
        seed=2, num_clients=8, client_groups=1, warmup_ms=10.0, measure_ms=20.0
    )
    system = _run_small(scenario)
    try:
        # a shed with no NACK for a request id the client never completed
        system.replicas["r0"].flow.shed_keys.append(("client0", 10**9))
        violations = run_oracle_bank(system, scenario, None)
    finally:
        system.close()
    assert any(v.oracle == "overload-protection" for v in violations)


# ----------------------------------------------------------------------
# campaign slice
# ----------------------------------------------------------------------
def test_overload_campaign_slice_passes_oracles():
    report = fuzz_campaign(
        runs=4, master_seed=17, scenario_source=generate_overload_scenario
    )
    assert report.ok
    assert len(report.outcomes) == 4
    # the slice genuinely exercised protection on at least one run
    assert any(
        outcome.scenario.has_overload_knobs for outcome in report.outcomes
    )
