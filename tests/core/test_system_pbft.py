"""Full-system tests: PBFT deployments end to end."""

import pytest

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def test_end_to_end_progress_and_safety(small_config):
    system = ResilientDBSystem(small_config)
    result = system.run()
    assert result.completed_requests > 100
    assert result.throughput_txns_per_s > 0
    assert result.latency_mean_s > 0
    prefix = system.validate_safety()
    assert prefix > 0


def test_all_replicas_build_identical_chains(small_config):
    system = ResilientDBSystem(small_config)
    system.run()
    chains = [replica.ledger.chain for replica in system.replicas.values()]
    min_height = min(chain.height for chain in chains)
    assert min_height > 10
    reference = chains[0]
    for chain in chains[1:]:
        for sequence in range(1, min_height + 1):
            ours = chain.get(sequence)
            theirs = reference.get(sequence)
            if ours is None or theirs is None:
                continue  # pruned by a checkpoint on one side
            assert ours.digest == theirs.digest


def test_commit_certificates_embedded_in_blocks(small_config):
    system = ResilientDBSystem(small_config)
    system.run()
    primary = system.replicas["r0"]
    block = primary.ledger.chain.head()
    signers = {signer for signer, _ in block.commit_certificate}
    assert len(signers) >= system.quorum.commit_quorum


def test_checkpoints_stabilise_and_prune(small_config):
    config = small_config.with_options(checkpoint_txns=80)  # every 10 batches
    system = ResilientDBSystem(config)
    result = system.run()
    assert result.stable_checkpoint > 0
    primary = system.replicas["r0"]
    horizon = primary.checkpoints.gc_horizon()
    if horizon > 1:
        assert primary.ledger.chain.get(horizon - 1) is None  # pruned
        assert len(primary.engine.slots) < primary.ledger.chain.height


def test_requests_complete_with_quorum_not_all_replicas(small_config):
    """PBFT clients need only f+1 matching responses."""
    system = ResilientDBSystem(small_config)
    result = system.run()
    assert result.fast_path_completions == result.completed_requests
    assert result.slow_path_completions == 0


def test_latency_includes_queueing(small_config):
    """More closed-loop clients -> same throughput, higher latency."""
    few = ResilientDBSystem(small_config.with_options(num_clients=32)).run()
    many = ResilientDBSystem(small_config.with_options(num_clients=256)).run()
    assert many.latency_mean_s > few.latency_mean_s


def test_deterministic_same_seed():
    config = SystemConfig(
        num_replicas=4,
        num_clients=32,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(20),
        measure=millis(50),
        seed=42,
    )
    first = ResilientDBSystem(config).run()
    second = ResilientDBSystem(config).run()
    assert first.throughput_txns_per_s == second.throughput_txns_per_s
    assert first.latency_mean_s == second.latency_mean_s
    assert first.messages_sent == second.messages_sent


def test_different_seed_different_trace():
    config = SystemConfig(
        num_replicas=4,
        num_clients=32,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(20),
        measure=millis(50),
    )
    first = ResilientDBSystem(config.with_options(seed=1)).run()
    second = ResilientDBSystem(config.with_options(seed=2)).run()
    # workload keys differ, so byte counts almost surely differ
    assert (
        first.bytes_sent != second.bytes_sent
        or first.latency_mean_s != second.latency_mean_s
    )


def test_real_auth_tokens_verified_end_to_end(small_config):
    system = ResilientDBSystem(small_config.with_options(real_auth_tokens=True))
    result = system.run()
    assert result.invalid_messages == 0
    assert result.completed_requests > 0


def test_state_convergence_across_replicas(small_config):
    system = ResilientDBSystem(small_config)
    system.run()
    system.validate_safety()  # includes state-convergence check
    primary_store = system.replicas["r0"].ledger.store
    assert primary_store.writes > 0


def test_saturation_report_covers_pipeline_stages(small_config):
    system = ResilientDBSystem(small_config)
    result = system.run()
    for stage in ("batch-0", "batch-1", "worker", "execute"):
        assert stage in result.primary_saturation
    assert "worker" in result.backup_saturation
    # a backup never runs batch threads
    assert "batch-0" not in result.backup_saturation
    assert 0 < result.cumulative_saturation("primary") <= small_config.cores_per_replica


def test_crashed_backups_do_not_stop_progress(small_config):
    system = ResilientDBSystem(small_config)
    system.crash_replicas(1)
    result = system.run()
    assert result.completed_requests > 50
    system.validate_safety()


def test_crash_more_than_f_rejected(small_config):
    system = ResilientDBSystem(small_config)
    with pytest.raises(ValueError):
        system.crash_replicas(2)  # f = 1 at n = 4


def test_negative_crash_count_rejected(small_config):
    # replica_ids[-count:] with count=-1 would crash every replica but r0
    system = ResilientDBSystem(small_config)
    with pytest.raises(ValueError):
        system.crash_replicas(-1)
    assert not system.faults.crashed_nodes(now=0)


def test_more_than_f_crashes_halt_commitment():
    config = SystemConfig(
        num_replicas=4,
        num_clients=16,
        client_groups=2,
        batch_size=4,
        ycsb_records=200,
        warmup=millis(20),
        measure=millis(50),
    )
    system = ResilientDBSystem(config)
    system.faults.crash("r2")
    system.faults.crash("r3")
    result = system.run()
    assert result.completed_requests == 0


def test_sqlite_backend_runs_and_converges(small_config):
    config = small_config.with_options(storage_backend="sqlite", ycsb_records=100)
    system = ResilientDBSystem(config)
    try:
        result = system.run()
        assert result.completed_requests > 0
        logs = {r: rep.ledger.executed_log for r, rep in system.replicas.items()}
        from repro.consensus.safety import check_execution_consistency

        check_execution_consistency(logs)
    finally:
        system.close()


def test_cannot_start_twice(small_config):
    system = ResilientDBSystem(small_config)
    system.start()
    with pytest.raises(RuntimeError):
        system.start()


def test_replica_state_memory_does_not_grow_with_the_table():
    """Every replica's store shares one lazily computed YCSB table, so a
    1M-record deployment allocates no more than a 1K-record one."""
    import tracemalloc

    from repro.workloads.zipf import ZipfianGenerator

    def build_peak(records: int) -> int:
        config = SystemConfig(
            num_replicas=4, num_clients=8, client_groups=2, ycsb_records=records
        )
        tracemalloc.start()
        try:
            system = ResilientDBSystem(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        system.close()
        return peak

    for records in (1_000, 1_000_000):
        ZipfianGenerator._zeta(records, 0.99)  # the O(n) constant is memoised
    build_peak(1_000)  # first build pays one-off imports
    small, large = build_peak(1_000), build_peak(1_000_000)
    assert abs(large - small) < 1_000_000
