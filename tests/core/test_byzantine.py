"""Byzantine-behaviour tests: safety must hold beyond simple crashes."""

import pytest

from repro.core import ResilientDBSystem
from repro.core.byzantine import make_policy
from repro.sim.clock import millis


@pytest.fixture
def byz_config(small_config):
    # n=7 tolerates f=2, giving policies room to misbehave
    return small_config.with_options(
        num_replicas=7, num_clients=48, batch_size=6
    )


def test_policy_factory():
    for name in ("silent", "conflicting-voter", "equivocating-primary"):
        assert make_policy(name).name == name
    assert make_policy("delayed", delay_ns=10).delay_ns == 10
    with pytest.raises(ValueError):
        make_policy("mind-control")


def test_silent_backups_within_f_are_harmless(byz_config):
    system = ResilientDBSystem(byz_config)
    system.make_byzantine("r5", "silent")
    system.make_byzantine("r6", "silent")
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety(faulty=("r5", "r6"))


def test_conflicting_voters_cannot_break_agreement(byz_config):
    system = ResilientDBSystem(byz_config)
    system.make_byzantine("r5", "conflicting-voter")
    system.make_byzantine("r6", "conflicting-voter")
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety(faulty=("r5", "r6"))
    # their poisoned votes were bucketed away, never counted
    honest = system.replicas["r1"].engine
    for slot in honest.slots.values():
        for digest, voters in slot.commits.items():
            if digest.startswith("byzantine:"):
                assert not slot.committed or slot.digest != digest


def test_equivocating_primary_cannot_split_executions(byz_config):
    """Half the backups get a proposal whose digest doesn't match the
    batch; they reject it at the re-hash check.  No two honest replicas
    may execute different batches at one sequence."""
    system = ResilientDBSystem(byz_config)
    system.make_byzantine("r0", "equivocating-primary")
    system.run()
    system.validate_safety(faulty=("r0",))
    # the forged proposals were detected somewhere
    rejected = sum(
        replica.invalid_messages
        for rid, replica in system.replicas.items()
        if rid != "r0"
    )
    assert rejected > 0


def test_delayed_replica_slows_nothing_down_fatally(byz_config):
    system = ResilientDBSystem(byz_config)
    system.make_byzantine("r6", "delayed", delay_ns=millis(5))
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety(faulty=("r6",))


def test_byzantine_replica_cannot_forge_other_identities(byz_config):
    """The keystore enforces key custody: a byzantine node signing as
    someone else produces tokens that fail verification."""
    system = ResilientDBSystem(byz_config.with_options(real_auth_tokens=True))
    scheme = system.replica_scheme
    # r5 tries to forge a message from r1 to r2: it must MAC under the
    # (r1, r2) pair key, which custody denies it — the best it can do is
    # MAC under its own pair key, which r2 rejects for sender r1
    forged_token = scheme.authenticate(b"evil", "r5", ["r2"])
    valid = scheme.check(b"evil", forged_token, "r1", "r2")
    assert not valid
