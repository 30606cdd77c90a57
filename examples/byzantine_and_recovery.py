#!/usr/bin/env python3
"""Living with the adversary: byzantine behaviours and crash recovery.

The paper's threat model is byzantine (§2.1) but its experiments only
crash replicas.  This demo goes further on both axes the fabric supports:

1. actively malicious replicas — an equivocating primary and vote
   corrupters — with safety checked afterwards, and
2. a crash + state-transfer recovery cycle (§4.7's first checkpoint
   purpose: "help a failed replica to update itself to the current
   state").

    python examples/byzantine_and_recovery.py
"""

from repro.core import ResilientDBSystem, SystemConfig
from repro.sim.clock import millis


def base_config() -> SystemConfig:
    return SystemConfig(
        num_replicas=7,  # f = 2
        num_clients=64,
        client_groups=4,
        batch_size=8,
        ycsb_records=1_000,
        warmup=millis(50),
        measure=millis(400),
        trace=True,
    )


def main() -> None:
    print("=== byzantine replicas (n=7, f=2) ===\n")

    print("-- two vote-corrupting replicas --")
    system = ResilientDBSystem(base_config())
    system.make_byzantine("r5", "conflicting-voter")
    system.make_byzantine("r6", "conflicting-voter")
    result = system.run()
    prefix = system.validate_safety(faulty=("r5", "r6"))
    print(f"throughput {result.throughput_txns_per_s / 1e3:.1f}K txns/s; "
          f"honest replicas agree on {prefix} batches ✓")
    print("corrupted votes were bucketed by digest and never counted\n")

    print("-- an equivocating primary --")
    # split proposals stall agreement (neither half can reach 2f prepares),
    # so give the replicas a fast view-change timer and let clients
    # retransmit: the honest view-1 primary restores liveness
    config = base_config().with_options(
        view_change_timeout=millis(150),
        client_retransmit=millis(250),
        measure=millis(800),
    )
    system = ResilientDBSystem(config)
    system.make_byzantine("r0", "equivocating-primary")
    system.run()
    prefix = system.validate_safety(faulty=("r0",))
    rejected = sum(
        replica.invalid_messages
        for rid, replica in system.replicas.items() if rid != "r0"
    )
    views = {system.replicas[f"r{i}"].engine.view for i in range(1, 7)}
    print(f"backups re-hash every proposed batch (§4.3): {rejected} forged "
          f"proposals rejected")
    print(f"the stalled view was abandoned (surviving views: {views}); the "
          f"honest new primary restored progress: {prefix} batches agreed ✓\n")

    print("=== crash + state-transfer recovery (§4.7) ===\n")
    config = base_config().with_options(measure=millis(700))
    system = ResilientDBSystem(config)
    system.faults.crash_at("r6", millis(120))
    system.recover_replica("r6", at_ns=millis(350))
    system.run()
    recovered = system.replicas["r6"]
    healthy = system.replicas["r1"]
    print(f"r6 crashed at 120ms, healed at 350ms")
    print(f"recoveries completed: {recovered.recovery.completed}")
    print(f"executed batches — recovered r6: {len(recovered.ledger.executed_log)}, "
          f"healthy r1: {len(healthy.ledger.executed_log)}")
    for record in system.spans.events(category="recovery"):
        print(f"  trace: {record.format()}")
    system.validate_safety()
    print("safety held across crash, transfer and catch-up ✓")


if __name__ == "__main__":
    main()
