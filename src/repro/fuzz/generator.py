"""Randomised scenario generation, deterministically derived from a seed.

``generate_scenario(master_seed, index)`` is a pure function: the same
``(master_seed, index)`` always yields the same :class:`Scenario` (the
draws come from a :class:`~repro.sim.rng.DeterministicRNG` forked on that
pair), so every run of a campaign is replayable from the two integers the
CLI prints — no corpus file required.

Generated scenarios always stay inside the BFT contract: the number of
replicas that crash or turn byzantine never exceeds ``f``, partitions
never isolate more than ``f`` replicas, and primary-only policies
(equivocation) land on the view-0 primary.  Scenarios that *violate* the
contract on purpose (the oracle self-tests) are hand-built instead — see
``BUG_REGISTRY`` in :mod:`repro.fuzz.runner`.
"""

from __future__ import annotations

from typing import List

from repro.core.byzantine import POLICY_NAMES
from repro.engines import ENGINES, PROTOCOLS
from repro.fuzz.scenario import (
    BACKUP_POLICIES,
    PRIMARY_POLICIES,
    FaultEvent,
    Scenario,
)
from repro.sim.rng import DeterministicRNG

#: knob pools — kept small so a 50-run campaign finishes in well under two
#: minutes while still crossing protocol × faults × byzantine × config
_REPLICA_COUNTS = (4, 4, 4, 5, 7)  # weighted toward fast 4-replica runs
_CLIENT_COUNTS = (12, 16, 24, 32)
_GROUP_COUNTS = (1, 2, 4)
_BATCH_SIZES = (2, 4, 8, 16)
_CHECKPOINT_TXNS = (24, 48, 96, 10_000)  # 10K = effectively "never"

assert set(PRIMARY_POLICIES) | set(BACKUP_POLICIES) <= set(POLICY_NAMES)


def _round(value: float) -> float:
    return round(value, 3)


def _overload_knobs(rng: DeterministicRNG, batch_size: int) -> dict:
    """Draw one overload-protection configuration.

    Lossy policies are only ever applied where the protocol tolerates
    loss: the batch queue (client requests, recovered by NACK + client
    retransmission) and admission control.  Protocol queues (work,
    checkpoint, output, inbox) stay unbounded — shedding quorum votes
    would manufacture liveness failures the oracles would then blame on
    the protection machinery.
    """
    policy = rng.choice(("reject", "reject", "shed_oldest", "block"))
    knobs = {
        "queue_policy": policy,
        "batch_queue_capacity": rng.choice((2, 4, 8)) * max(batch_size, 2),
        "admission_max_inflight": rng.choice((4, 8, 16, None)),
        "admission_max_per_client": rng.choice((2, 4, None)),
        # always give clients a retransmit base so shed requests are
        # recovered inside the fuzz window
        "client_retransmit_ms": rng.choice((3.0, 5.0, 8.0)),
        "client_window_initial": rng.choice((1, 2, 4, None)),
    }
    return knobs


def generate_scenario(master_seed: int, index: int) -> Scenario:
    """Deterministically draw scenario ``index`` of campaign ``master_seed``."""
    rng = DeterministicRNG(master_seed).fork(f"scenario-{index}")

    protocol = rng.choice(PROTOCOLS)
    num_replicas = rng.choice(_REPLICA_COUNTS)
    f = (num_replicas - 1) // 3
    num_clients = rng.choice(_CLIENT_COUNTS)
    client_groups = min(rng.choice(_GROUP_COUNTS), num_clients)
    batch_size = rng.choice(_BATCH_SIZES)
    # bound the consensus-round count so campaign runs stay ~1s each:
    # small batches and wide clusters multiply rounds/messages per txn
    if num_replicas >= 7:
        batch_size = max(batch_size, 8)
    if batch_size <= 4:
        num_clients = min(num_clients, 16)
    warmup_ms = 25.0
    measure_ms = _round(rng.uniform(30.0, 50.0))

    # rcc: multiple concurrent instances, each led by one of r0..r{m-1};
    # a short view-change timeout lets lane view changes fire inside the
    # fuzz window (the 5s default would dwarf it)
    num_primaries = 1
    view_change_timeout_ms = None
    if ENGINES[protocol].multi_primary:
        num_primaries = min(rng.choice((2, 2, 3)), num_replicas)
        view_change_timeout_ms = _round(rng.uniform(8.0, 15.0))
    primaries = [f"r{i}" for i in range(num_primaries)]
    backups = [f"r{i}" for i in range(num_primaries, num_replicas)]

    events: List[FaultEvent] = []
    budget = f

    # -- primary misbehaviour -------------------------------------------
    # under rcc the victim is a *specific instance's* primary, so the
    # campaign exercises per-lane containment, not just r0
    if budget and rng.random() < 0.30:
        budget -= 1
        events.append(
            FaultEvent(
                kind="byzantine",
                at_ms=0.0,
                target=rng.choice(primaries),
                policy=rng.choice(PRIMARY_POLICIES),
            )
        )

    # -- rcc: crash one instance primary mid-run --------------------------
    # the canonical multi-primary failure: lane k's primary dies, lane k
    # view-changes, the other lanes keep committing and the merge resumes
    if ENGINES[protocol].multi_primary and budget and rng.random() < 0.25:
        victim = rng.choice(primaries)
        if not any(event.target == victim for event in events):
            budget -= 1
            events.append(
                FaultEvent(
                    kind="crash",
                    at_ms=_round(
                        rng.uniform(warmup_ms * 0.5, warmup_ms + measure_ms * 0.4)
                    ),
                    target=victim,
                )
            )

    # -- backup crashes and byzantine policies ---------------------------
    victim_count = rng.randint(0, budget)
    victims = rng.sample(backups, victim_count) if victim_count else []
    for victim in victims:
        at_ms = _round(rng.uniform(warmup_ms * 0.4, warmup_ms + measure_ms * 0.7))
        if rng.random() < 0.55:
            events.append(FaultEvent(kind="crash", at_ms=at_ms, target=victim))
            if rng.random() < 0.35:
                recover_at = _round(at_ms + rng.uniform(5.0, 20.0))
                events.append(
                    FaultEvent(kind="recover", at_ms=recover_at, target=victim)
                )
        else:
            policy = rng.choice(BACKUP_POLICIES)
            events.append(
                FaultEvent(
                    kind="byzantine",
                    at_ms=_round(rng.uniform(0.0, at_ms)),
                    target=victim,
                    policy=policy,
                    delay_ms=(
                        _round(rng.uniform(0.5, 4.0))
                        if policy == "delayed"
                        else 0.0
                    ),
                )
            )

    # -- link-level faults (gate the liveness oracle off) ----------------
    if rng.random() < 0.25:
        for _ in range(rng.randint(1, 2)):
            src, dst = rng.sample([f"r{i}" for i in range(num_replicas)], 2)
            at_ms = _round(rng.uniform(warmup_ms * 0.5, warmup_ms + measure_ms * 0.5))
            events.append(
                FaultEvent(
                    kind="drop-link",
                    at_ms=at_ms,
                    src=src,
                    dst=dst,
                    probability=_round(rng.uniform(0.01, 0.08)),
                    until_ms=_round(at_ms + rng.uniform(5.0, 25.0)),
                )
            )
    if f >= 1 and rng.random() < 0.15:
        isolated = tuple(rng.sample(backups, rng.randint(1, f)))
        at_ms = _round(rng.uniform(warmup_ms, warmup_ms + measure_ms * 0.4))
        events.append(
            FaultEvent(
                kind="partition",
                at_ms=at_ms,
                group=isolated,
                until_ms=_round(at_ms + rng.uniform(5.0, 20.0)),
            )
        )

    ops_per_txn = rng.choice((1, 1, 1, 2))
    checkpoint_txns = rng.choice(_CHECKPOINT_TXNS)
    zyzzyva_timeout_ms = _round(rng.uniform(5.0, 12.0))

    # -- overload protection (ISSUE 5): a slice of the mixed campaign ----
    # runs with bounded queues + admission + client backoff, so the flow
    # invariants are fuzzed against crashes/byzantine/link faults too
    overload: dict = {}
    if rng.random() < 0.18:
        overload = _overload_knobs(rng, batch_size)

    return Scenario(
        seed=master_seed * 1_000_003 + index,
        protocol=protocol,
        num_primaries=num_primaries,
        view_change_timeout_ms=view_change_timeout_ms,
        num_replicas=num_replicas,
        num_clients=num_clients,
        client_groups=client_groups,
        batch_size=batch_size,
        ops_per_txn=ops_per_txn,
        checkpoint_txns=checkpoint_txns,
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
        zyzzyva_timeout_ms=zyzzyva_timeout_ms,
        events=tuple(events),
        label=f"run-{index}",
        **overload,
    )


def generate_overload_scenario(master_seed: int, index: int) -> Scenario:
    """Deterministically draw an *overload-focused* scenario: a small
    cluster driven well past capacity with protection always on.

    Compared to :func:`generate_scenario` this pins the deployment shape
    (n=4, heavy client load, small batches) and always applies
    :func:`_overload_knobs`, so a campaign of these concentrates on the
    flow-control machinery: shed/NACK bookkeeping, AIMD windows,
    retransmission backoff and the never-shed-a-sequenced-request
    invariant — with occasional crash faults layered on top.
    """
    rng = DeterministicRNG(master_seed).fork(f"overload-{index}")

    protocol = rng.choice(("pbft", "pbft", "rcc", "poe", "zyzzyva"))
    num_replicas = 4
    num_clients = rng.choice((48, 64, 96))
    client_groups = rng.choice((2, 4))
    batch_size = rng.choice((4, 8))
    num_primaries = 1
    view_change_timeout_ms = None
    if ENGINES[protocol].multi_primary:
        num_primaries = rng.choice((2, 3))
        view_change_timeout_ms = _round(rng.uniform(8.0, 15.0))
    warmup_ms = 25.0
    measure_ms = _round(rng.uniform(35.0, 45.0))

    events: List[FaultEvent] = []
    # a minority of runs also crash one backup: overload plus a real
    # fault is where release/backlog accounting is easiest to get wrong
    if rng.random() < 0.25:
        victim = f"r{rng.randint(num_primaries, num_replicas - 1)}"
        events.append(
            FaultEvent(
                kind="crash",
                at_ms=_round(rng.uniform(warmup_ms, warmup_ms + measure_ms * 0.5)),
                target=victim,
            )
        )

    ops_per_txn = 1
    checkpoint_txns = rng.choice((48, 96))
    zyzzyva_timeout_ms = _round(rng.uniform(5.0, 12.0))
    overload = _overload_knobs(rng, batch_size)

    return Scenario(
        seed=master_seed * 1_000_003 + index,
        protocol=protocol,
        num_primaries=num_primaries,
        view_change_timeout_ms=view_change_timeout_ms,
        num_replicas=num_replicas,
        num_clients=num_clients,
        client_groups=client_groups,
        batch_size=batch_size,
        ops_per_txn=ops_per_txn,
        checkpoint_txns=checkpoint_txns,
        warmup_ms=warmup_ms,
        measure_ms=measure_ms,
        zyzzyva_timeout_ms=zyzzyva_timeout_ms,
        events=tuple(events),
        label=f"overload-{index}",
        **overload,
    )
