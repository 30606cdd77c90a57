"""Model pinning: small fixed deployments must reproduce a recorded history.

Each case builds a deterministic deployment, runs its warm-up and
measurement window, and compares the modelled outcome against values
recorded once from a known-good build: a sha256 over one replica's
executed ``(sequence, batch digest)`` log and chain head, the number of
completed client requests, and the request-latency p50/p99.

Simulator refactors (kernel, transport, dispatch) must not change *what*
is modelled, only how fast it runs, so any difference here is a model
change.  If one is intended, re-record the table with::

    PYTHONPATH=src python tests/sim/test_model_pinning.py

and say in the change description why the history moved.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import micros, millis


def _small(**overrides) -> SystemConfig:
    params = dict(
        num_replicas=4,
        num_clients=32,
        client_groups=4,
        batch_size=6,
        ycsb_records=300,
        warmup=millis(20),
        measure=millis(40),
        seed=7,
    )
    params.update(overrides)
    return SystemConfig(**params)


def _fault_free(system):
    return "r0"


def _primary_crash(system):
    system.crash_primary(at_ns=millis(30))
    return "r1"


def _jitter_and_loss(system):
    network = system.network
    network.topology = dataclasses.replace(network.topology, jitter_ns=micros(20))
    system.faults.drop_link("r0", "r3", probability=0.3)
    system.faults.drop_link("client0", "r0", probability=0.3)
    return "r0"


def _rcc_lane_primary_crash(system):
    # r1 leads lane 1 in view 0: its lane view-changes while lane 0 runs on
    system.faults.crash_at("r1", millis(30))
    return "r0"


def _backup_crash_and_recover(system):
    system.crash_replicas(1, at_ns=millis(25))
    system.recover_replica("r3", at_ns=millis(60))
    return "r3"


def _backup_crash(system):
    system.crash_replicas(1, at_ns=millis(25))
    return "r0"


def _equivocating_primary(system):
    system.make_byzantine("r0", "equivocating-primary")
    return "r1"


#: name -> (config, setup hook returning the replica to fingerprint)
CASES = {
    "pbft-n4": (lambda: _small(), _fault_free),
    "rcc-m2": (lambda: _small(protocol="rcc", num_primaries=2), _fault_free),
    "zyzzyva": (lambda: _small(protocol="zyzzyva"), _fault_free),
    "poe": (lambda: _small(protocol="poe"), _fault_free),
    "pbft-primary-crash": (
        lambda: _small(
            measure=millis(100),
            client_retransmit=millis(4),
            view_change_timeout=millis(12),
        ),
        _primary_crash,
    ),
    "pbft-jitter-lossy": (
        lambda: _small(client_retransmit=millis(5)),
        _jitter_and_loss,
    ),
    # a bounded block-policy batch queue parks the input stage
    "pbft-blocking-batch-queue": (
        lambda: _small(
            num_clients=128, queue_policy="block", batch_queue_capacity=2
        ),
        _fault_free,
    ),
    "rcc-m2-lane1-crash": (
        lambda: _small(
            protocol="rcc",
            num_primaries=2,
            measure=millis(100),
            checkpoint_txns=60,
            client_retransmit=millis(4),
            view_change_timeout=millis(12),
        ),
        _rcc_lane_primary_crash,
    ),
    # state transfer, checkpoint-driven advance_stable, wedge clearing
    "pbft-backup-recover": (
        lambda: _small(
            measure=millis(100),
            checkpoint_txns=60,
            client_retransmit=millis(4),
            state_transfer_retry=millis(5),
        ),
        _backup_crash_and_recover,
    ),
    # adversary transform + backups' proposal re-hash rejection
    "pbft-equivocating-primary": (
        lambda: _small(
            measure=millis(100),
            client_retransmit=millis(4),
            view_change_timeout=millis(12),
        ),
        _equivocating_primary,
    ),
    # 0B0E degenerate pipeline: the worker batches and executes inline
    "pbft-0b0e": (
        lambda: _small(batch_threads=0, execute_threads=0),
        _fault_free,
    ),
    # busy-nacks from a small reject-policy batch queue
    "poe-reject-busy": (
        lambda: _small(
            protocol="poe",
            num_clients=128,
            queue_policy="reject",
            batch_queue_capacity=4,
        ),
        _fault_free,
    ),
    # a crashed backup pushes Zyzzyva clients onto the certificate path
    "zyzzyva-backup-crash": (
        lambda: _small(protocol="zyzzyva", zyzzyva_client_timeout=millis(3)),
        _backup_crash,
    ),
    # busy-nacks drive the Zyzzyva NACK retry
    "zyzzyva-reject-busy": (
        lambda: _small(
            protocol="zyzzyva",
            num_clients=128,
            queue_policy="reject",
            batch_queue_capacity=4,
        ),
        _fault_free,
    ),
    # busy-nacks drive RCC Busy-lane steering
    "rcc-m2-reject-busy": (
        lambda: _small(
            protocol="rcc",
            num_primaries=2,
            num_clients=128,
            queue_policy="reject",
            batch_queue_capacity=4,
        ),
        _fault_free,
    ),
}


def observe(name: str) -> dict:
    """Run one case; returns its pinned observables."""
    make_config, setup = CASES[name]
    system = ResilientDBSystem(make_config())
    replica_id = setup(system)
    result = system.run()
    replica = system.replicas[replica_id]
    digest = hashlib.sha256()
    for sequence, batch_digest in replica.ledger.executed_log:
        digest.update(f"{sequence}:{batch_digest};".encode("utf-8"))
    digest.update(replica.ledger.chain.head().block_hash().encode("utf-8"))
    return {
        "history": digest.hexdigest()[:24],
        "completed": result.completed_requests,
        "p50_s": result.latency_p50_s,
        "p99_s": result.latency_p99_s,
    }


#: the first six recorded from the build before the NIC FIFO-server
#: transport; the next five from the build before the engine-contract
#: refactor; pbft-blocking-batch-queue from the build before the
#: callback-driven input/output stages; zyzzyva-backup-crash,
#: zyzzyva-reject-busy and rcc-m2-reject-busy from the build before the
#: client rules moved into the engine registry.  The three view-change
#: cases (pbft-primary-crash, pbft-equivocating-primary,
#: rcc-m2-lane1-crash) were re-recorded when a new primary began
#: proposing the requests it had forwarded on view entry, and again when
#: clients began steering new requests to the primary of the view that
#: f+1 replicas report in their replies
EXPECTED = {
    'pbft-0b0e': {'history': '624bb7bebd14eb467a84edc2', 'completed': 1455, 'p50_s': 0.000879817, 'p99_s': 0.001082036},
    'pbft-backup-recover': {'history': '2f9d37e03a7117a3535b24c5', 'completed': 4260, 'p50_s': 0.000719223, 'p99_s': 0.001243663},
    'pbft-blocking-batch-queue': {'history': '44a4f58d58f49b8d8280ac56', 'completed': 5510, 'p50_s': 0.000927194, 'p99_s': 0.000958036},
    'pbft-equivocating-primary': {'history': 'd2e818432bf5cb4c2172b67b', 'completed': 4290, 'p50_s': 0.0007083, 'p99_s': 0.001231398},
    'pbft-jitter-lossy': {'history': '21407643f829449414e4ff40', 'completed': 1320, 'p50_s': 0.000758303, 'p99_s': 0.006357611},
    'pbft-n4': {'history': 'f01767b20ec03d2de352d588', 'completed': 1704, 'p50_s': 0.000722655, 'p99_s': 0.001240708},
    'pbft-primary-crash': {'history': '153bbfc4064d113475598b35', 'completed': 3600, 'p50_s': 0.000716749, 'p99_s': 0.001249596},
    'poe': {'history': '511d34e1672d0139b1109406', 'completed': 2040, 'p50_s': 0.000599175, 'p99_s': 0.00100642},
    'poe-reject-busy': {'history': 'ab1f30a8984de9afd1b090d2', 'completed': 775, 'p50_s': 0.000595522, 'p99_s': 0.0117083},
    'rcc-m2': {'history': 'd201d9a005161ffc5e9d1842', 'completed': 1332, 'p50_s': 0.000826229, 'p99_s': 0.001410701},
    'rcc-m2-lane1-crash': {'history': '5d2bf48aead83cdc237171a9', 'completed': 2568, 'p50_s': 0.000837771, 'p99_s': 0.024420254},
    'rcc-m2-reject-busy': {'history': 'a7312063e3bd3019da674cee', 'completed': 1862, 'p50_s': 0.001003601, 'p99_s': 0.011687001},
    'zyzzyva': {'history': '8c325f8a73665c52fa402972', 'completed': 2586, 'p50_s': 0.000474178, 'p99_s': 0.000767654},
    'zyzzyva-backup-crash': {'history': '8252b0efa0ce4a9af9227f6a', 'completed': 644, 'p50_s': 0.000778917, 'p99_s': 0.00344527},
    'zyzzyva-reject-busy': {'history': '74f19a789b8ae01836989e4a', 'completed': 1035, 'p50_s': 0.000485381, 'p99_s': 0.011641487},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_modelled_history_is_pinned(name):
    assert observe(name) == EXPECTED[name]


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {observe(case)!r},")
