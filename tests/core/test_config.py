"""Tests for SystemConfig validation and derived quantities."""

import pytest

from repro.core import SystemConfig
from repro.crypto.schemes import SchemeName
from repro.engines import ENGINES, PROTOCOLS
from repro.net.topology import Topology


def test_defaults_match_paper_standard_setup():
    config = SystemConfig()
    assert config.protocol == "pbft"
    assert config.batch_size == 100
    assert config.checkpoint_txns == 10_000
    assert config.client_scheme is SchemeName.ED25519
    assert config.replica_scheme is SchemeName.CMAC_AES
    assert config.storage_backend == "memory"
    assert config.cores_per_replica == 8
    assert config.batch_threads == 2
    assert config.execute_threads == 1
    # one NIC default: a bare Topology models the deployments' NIC
    assert Topology().nic_gbps == config.nic_gbps == 7.0


def test_f_derivation():
    assert SystemConfig(num_replicas=4).f == 1
    assert SystemConfig(num_replicas=16).f == 5
    assert SystemConfig(num_replicas=32).f == 10
    assert SystemConfig(num_replicas=16, faults_tolerated=2).f == 2


def test_checkpoint_period_in_batches():
    assert SystemConfig(batch_size=100, checkpoint_txns=10_000).checkpoint_batches == 100
    assert SystemConfig(batch_size=1, checkpoint_txns=10_000).checkpoint_batches == 10_000
    # huge batches never divide to zero
    assert SystemConfig(batch_size=20_000, checkpoint_txns=10_000).checkpoint_batches == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"protocol": "raft"},
        {"num_replicas": 3},
        {"batch_size": 0},
        {"num_clients": 0},
        {"client_groups": 0},
        {"client_groups": 100, "num_clients": 50},
        {"storage_backend": "rocksdb"},
        {"input_threads": 0},
        {"batch_threads": -1},
        {"execute_threads": 2},
        {"cores_per_replica": 0},
        {"client_batch_txns": 0},
    ],
)
def test_invalid_configs_rejected(overrides):
    with pytest.raises(ValueError):
        SystemConfig(**overrides)


def test_batch_queue_bound_needs_batch_threads():
    # 0B: the worker batches straight off its own queue, so a batch-queue
    # bound would never apply; refuse it instead of ignoring it
    with pytest.raises(ValueError, match="batch_threads"):
        SystemConfig(batch_threads=0, batch_queue_capacity=4)
    assert SystemConfig(batch_threads=1, batch_queue_capacity=4).batch_threads == 1
    assert SystemConfig(batch_threads=0).batch_queue_capacity is None


def test_upper_bound_mode_needs_batch_threads():
    # Fig. 7 upper-bound mode: the batch-threads are the responders, so
    # with none of them nothing would drain the batch queue
    with pytest.raises(ValueError, match="batch_threads"):
        SystemConfig(consensus_enabled=False, batch_threads=0)
    assert not SystemConfig(consensus_enabled=False, batch_threads=1).consensus_enabled
    assert SystemConfig(batch_threads=0).consensus_enabled


@pytest.mark.parametrize(
    "cap", ["admission_max_inflight", "admission_max_per_client"]
)
def test_upper_bound_mode_refuses_admission_caps(cap):
    # the responders answer straight off the batch queue: no request
    # passes the admission controller, so a cap would be silently ignored
    with pytest.raises(ValueError, match="admission caps"):
        SystemConfig(consensus_enabled=False, **{cap: 4})
    assert SystemConfig(**{cap: 4}).consensus_enabled


def test_with_options_derives_variant():
    base = SystemConfig()
    variant = base.with_options(num_replicas=32, batch_size=500)
    assert variant.num_replicas == 32
    assert variant.batch_size == 500
    assert base.num_replicas == 16  # base untouched
    assert variant.protocol == base.protocol


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_extra_primaries_need_a_multi_primary_engine(protocol):
    # m=1 is legal everywhere (RCC m=1 degenerates to PBFT)
    assert SystemConfig(protocol=protocol, num_primaries=1).num_primaries == 1
    if ENGINES[protocol].multi_primary:
        assert SystemConfig(protocol=protocol, num_primaries=3).num_primaries == 3
    else:
        with pytest.raises(ValueError, match="one consensus lane"):
            SystemConfig(protocol=protocol, num_primaries=3)
