"""The host-facing engine contract (:class:`repro.consensus.base.ConsensusEngine`).

Every protocol in :data:`repro.engines.ENGINES` implements the same
members, and the replica pipeline drives engines only through them — so
an authenticated message of another protocol's kind is an invalid
message, not a crash.
"""

import pytest

from repro.consensus import NotPrimaryError, QuorumConfig
from repro.consensus.messages import OrderRequest, Prepare, make_null_batch
from repro.consensus.pbft import PbftReplica
from repro.consensus.poe import Support
from repro.core import ResilientDBSystem
from repro.core.clientmgr import ClientGroup
from repro.engines import ENGINES, PROTOCOLS, Engine
from repro.sim.clock import millis

IDS = ("r0", "r1", "r2", "r3")

CONTRACT = (
    "propose",
    "handle",
    "is_primary",
    "forward_target",
    "steer_instance",
    "proposer_of",
    "global_sequence",
    "advance_stable",
    "on_view_change_timeout",
    "suspect_primary",
    "absorb_adopted_log",
    "clear_view_change_wedges",
    "view",
    "in_view_change",
    "rejected_messages",
    "num_instances",
    "history_chain",
)


def _null_order_request():
    batch = make_null_batch()
    return OrderRequest("r1", 0, 1, batch.digest, "history", batch)


#: a well-formed message of a kind the protocol does not speak (an RCC
#: null-batch order-request skips the backups' proposal re-hash, so it
#: reaches the engine)
FOREIGN = {
    "pbft": lambda: Support("r1", 0, 1, "digest"),
    "zyzzyva": lambda: Prepare("r1", 0, 1, "digest"),
    "poe": lambda: Prepare("r1", 0, 1, "digest"),
    "rcc": _null_order_request,
}


def _engine(protocol: str, replica_id: str):
    return ENGINES[protocol].replica(replica_id, IDS, QuorumConfig.for_replicas(4), 2)


def test_protocols_are_listed_once_in_draw_order():
    # the fuzz generator draws protocols by index
    assert PROTOCOLS == ("pbft", "zyzzyva", "poe", "rcc")
    assert set(FOREIGN) == set(PROTOCOLS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_engine_implements_the_contract(protocol):
    engine = _engine(protocol, "r0")
    for member in CONTRACT:
        assert hasattr(engine, member), member
    assert engine.is_primary
    lane = engine.steer_instance("client0", 1)
    assert engine.forward_target("client0", 1) == IDS[lane]
    assert engine.global_sequence(0, 1) == 1
    batch = make_null_batch()
    proposal, actions = engine.propose(batch.digest, batch)
    assert proposal.sequence == 1
    assert actions


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_non_primary_propose_raises_not_primary(protocol):
    engine = _engine(protocol, "r3")  # leads nothing, even with 2 lanes
    assert not engine.is_primary
    batch = make_null_batch()
    with pytest.raises(NotPrimaryError):
        engine.propose(batch.digest, batch)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_handle_returns_none_for_a_foreign_kind(protocol):
    engine = _engine(protocol, "r2")
    assert engine.handle(FOREIGN[protocol]()) is None
    assert engine.rejected_messages == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_authenticated_foreign_kind_is_counted_not_fatal(protocol, small_config):
    config = small_config.with_options(
        protocol=protocol, num_primaries=2 if protocol == "rcc" else 1
    )
    baseline = ResilientDBSystem(config).run().invalid_messages

    system = ResilientDBSystem(config)

    def inject():
        # r1 holds valid keys: the MAC checks out at r2
        message = FOREIGN[protocol]()
        message.auth = system.replica_scheme.authenticate(
            message.signable_bytes(), "r1", ["r2"]
        )
        system.network.send("r1", "r2", message)

    system.sim.schedule(millis(80), inject)  # mid-measurement
    result = system.run()
    assert result.completed_requests > 0
    assert result.invalid_messages == baseline + 1
    assert system.replicas["r2"].invalid_messages == 1
    assert system.validate_safety() > 0


def test_a_new_engine_is_one_registry_entry(monkeypatch, small_config):
    """An engine registered with no edit to the config, the deployment
    builder or the client manager runs end to end: this stub builds PBFT
    replicas and reuses the PBFT client rules."""
    built = []

    def stub_replica(replica_id, replica_ids, quorum, _lanes):
        built.append(replica_id)
        return PbftReplica(replica_id, replica_ids, quorum)

    monkeypatch.setitem(ENGINES, "stub", Engine(stub_replica))
    system = ResilientDBSystem(small_config.with_options(protocol="stub"))
    assert built == list(system.replica_ids)
    assert all(type(group) is ClientGroup for group in system.client_groups)
    result = system.run()
    assert result.completed_requests > 100
    assert system.validate_safety() > 0
    with pytest.raises(ValueError, match="one consensus lane"):
        small_config.with_options(protocol="stub", num_primaries=2)
