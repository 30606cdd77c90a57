"""Execute one scenario through a full deployment and judge it.

``run_scenario`` is the fuzzer's unit of work and the replay entry point:
build the :class:`~repro.core.system.ResilientDBSystem` the scenario
describes, inject its fault events on schedule, run the measurement
protocol, give the deployment a fault-free quiesce window, then evaluate
the oracle bank.  Determinism of the simulator makes the outcome a pure
function of the scenario, which is what seed replay and shrinking rely on.

``BUG_REGISTRY`` holds *deliberately injected defects* used to prove the
oracles catch real violations (ISSUE 2's self-test requirement).  The
scenario generator never produces them; they exist for the fuzzer's own
test fixtures and for manually probing oracle sensitivity::

    Scenario(bug="weak-commit-quorum", events=(two-faced primary, ...))

weakens every replica's commit quorum to f+1 — two such quorums need not
intersect in an honest replica, so a two-faced primary genuinely splits
the execution order, which ``execution-order`` must report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.consensus.base import QuorumConfig
from repro.core.system import ResilientDBSystem
from repro.fuzz.oracles import Violation, run_oracle_bank
from repro.fuzz.scenario import FaultEvent, Scenario
from repro.sim.clock import millis


@dataclass
class RunOutcome:
    """Everything one fuzz run reports."""

    scenario: Scenario
    violations: List[Violation] = field(default_factory=list)
    completed_requests: int = 0
    chain_height: int = 0
    stable_checkpoint: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"{self.scenario.label or 'scenario'}: {status} "
            f"[{self.scenario.describe()}] "
            f"requests={self.completed_requests} "
            f"chain={self.chain_height} ({self.wall_seconds:.1f}s)"
        )


# ----------------------------------------------------------------------
# deliberate defects (oracle self-test hooks)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _WeakQuorumConfig(QuorumConfig):
    """Broken quorum arithmetic: commit quorums of f+1 do not intersect in
    an honest replica, so equivocation can split the cluster."""

    @property
    def commit_quorum(self) -> int:  # type: ignore[override]
        return self.f + 1


def _inject_weak_commit_quorum(system: ResilientDBSystem) -> None:
    for replica in system.replicas.values():
        weak = _WeakQuorumConfig(n=replica.quorum.n, f=replica.quorum.f)
        replica.quorum = weak
        replica.engine.quorum = weak
        # the chain's certificate check derives from the same (broken)
        # arithmetic — otherwise it crashes the run before the oracles
        # get to see the divergence
        replica.ledger.chain.quorum_size = weak.commit_quorum


#: name -> installer; applied to the built system before it starts
BUG_REGISTRY: Dict[str, Callable[[ResilientDBSystem], None]] = {
    "weak-commit-quorum": _inject_weak_commit_quorum,
}


# ----------------------------------------------------------------------
# event injection
# ----------------------------------------------------------------------
def apply_events(system: ResilientDBSystem, scenario: Scenario) -> None:
    """Schedule every fault event on the deployment's simulator."""
    sim = system.sim
    faults = system.faults
    for event in scenario.events:
        at_ns = millis(event.at_ms)
        until_ns = millis(event.until_ms) if event.until_ms is not None else None
        if event.kind == "crash":
            faults.crash_at(event.target, at_ns)
        elif event.kind == "recover":
            system.recover_replica(event.target, at_ns)
        elif event.kind == "byzantine":
            kwargs = (
                {"delay_ns": millis(event.delay_ms)}
                if event.policy == "delayed"
                else {}
            )
            if at_ns <= 0:
                system.make_byzantine(event.target, event.policy, **kwargs)
            else:
                sim.schedule(
                    at_ns,
                    partial(
                        system.make_byzantine, event.target, event.policy,
                        **kwargs,
                    ),
                )
        elif event.kind == "drop-link":
            sim.schedule(
                at_ns, faults.drop_link, event.src, event.dst, event.probability
            )
            if until_ns is not None:
                # declarative heal: no scheduled callback, the fault plan
                # just stops dropping once ``now`` passes the deadline
                faults.heal_link_at(event.src, event.dst, until_ns)
        elif event.kind == "partition":
            rest = tuple(
                rid for rid in system.replica_ids if rid not in event.group
            )
            sim.schedule(at_ns, faults.partition, event.group, rest)
            if until_ns is not None:
                # scenarios carry at most one partition, so a blanket heal
                # is exact (FaultPlan.heal_partitions clears all of them)
                sim.schedule(until_ns, faults.heal_partitions)


def run_scenario(scenario: Scenario) -> RunOutcome:
    """Build, fault-inject, run, quiesce, and judge one scenario."""
    started = time.monotonic()
    if scenario.bug is not None and scenario.bug not in BUG_REGISTRY:
        raise ValueError(f"unknown injected bug {scenario.bug!r}")
    system = ResilientDBSystem(scenario.to_config())
    try:
        apply_events(system, scenario)
        if scenario.bug is not None:
            BUG_REGISTRY[scenario.bug](system)
        system.run()
        byzantine = set(scenario.byzantine_targets)
        committed = {
            rid: replica.ledger.committed_through
            for rid, replica in system.replicas.items()
            if rid not in byzantine
        }
        # fault-free settling window: whatever was committed by the end of
        # measurement must execute by the end of this ("eventually")
        system.sim.run(until=system.sim.now + millis(scenario.quiesce_ms))
        violations = run_oracle_bank(system, scenario, committed)
        completed = sum(
            group.completed_requests for group in system.client_groups
        )
        primary = system.replicas[system.replica_ids[0]]
        return RunOutcome(
            scenario=scenario,
            violations=violations,
            completed_requests=completed,
            chain_height=primary.ledger.chain.height,
            stable_checkpoint=primary.checkpoints.stable_sequence,
            wall_seconds=time.monotonic() - started,
        )
    finally:
        system.close()


# ----------------------------------------------------------------------
# campaign driver
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Result of a multi-run fuzz campaign."""

    master_seed: int
    runs: int
    offset: int = 0
    outcomes: List[RunOutcome] = field(default_factory=list)
    failures: List[RunOutcome] = field(default_factory=list)
    shrunk: Dict[str, Scenario] = field(default_factory=dict)
    artifacts: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_campaign(
    runs: int,
    master_seed: int = 0,
    offset: int = 0,
    shrink: bool = False,
    artifacts_dir: Optional[str] = None,
    scenario_source: Optional[Callable[[int, int], Scenario]] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run scenarios ``offset .. offset+runs`` of campaign ``master_seed``.

    ``scenario_source(master_seed, index)`` defaults to
    :func:`repro.fuzz.generator.generate_scenario`; tests substitute their
    own source to drive known-bad scenarios through the same pipeline.
    On violation the failing scenario (shrunk first, when ``shrink``) is
    saved under ``artifacts_dir`` as a self-contained JSON repro.
    """
    from repro.fuzz.corpus import save_artifact
    from repro.fuzz.generator import generate_scenario
    from repro.fuzz.shrinker import shrink_scenario

    source = scenario_source or generate_scenario
    emit = log or (lambda _line: None)
    report = CampaignReport(master_seed=master_seed, runs=runs, offset=offset)
    started = time.monotonic()
    for index in range(offset, offset + runs):
        scenario = source(master_seed, index)
        outcome = run_scenario(scenario)
        report.outcomes.append(outcome)
        emit(outcome.summary())
        if outcome.ok:
            continue
        report.failures.append(outcome)
        for violation in outcome.violations:
            emit(f"  {violation}")
        emit(
            f"  replay: python -m repro fuzz --seed {master_seed} "
            f"--offset {index} --runs 1"
        )
        if shrink:
            result = shrink_scenario(scenario)
            report.shrunk[scenario.label or str(index)] = result.scenario
            emit(
                f"  shrunk {len(scenario.events)} -> "
                f"{len(result.scenario.events)} event(s) in "
                f"{result.attempts} attempt(s): "
                f"{result.scenario.describe()}"
            )
        if artifacts_dir is not None:
            shrunk = report.shrunk.get(scenario.label or str(index))
            path = save_artifact(outcome, artifacts_dir, shrunk=shrunk)
            report.artifacts.append(path)
            emit(f"  artifact: {path}")
    report.wall_seconds = time.monotonic() - started
    return report
