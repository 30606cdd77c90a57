"""The fuzzer's oracle bank.

Each oracle checks one paper-level guarantee against a finished
deployment; the runner (:mod:`repro.fuzz.runner`) evaluates all of them
and reports every violation, not just the first:

- ``execution-order`` — all non-faulty replicas executed consistent
  prefixes of one common (sequence, digest) order, their chains validate,
  and replicas at equal log length hold identical state
  (:func:`repro.consensus.safety.check_execution_consistency` via
  ``ResilientDBSystem.validate_safety``).  Skipped — along with
  checkpoint consistency — when a speculative protocol (Zyzzyva, PoE)
  runs under an equivocating primary: speculative logs may legally
  diverge until view change repairs them, and the protocols' safety
  guarantee lives in the client-reply quorums, which stay checked.
- ``client-replies`` — every completed client request's (sequence, result
  digest) appears in the executed log of some non-byzantine replica: a
  reply quorum can never attest to an order nobody honest executed.
- ``exactly-once`` — no non-byzantine replica applied one client request
  ``(sender, request_id)`` twice, however often it was proposed (by two
  RCC lanes, or again by a new primary carrying forwarded requests over)
  (:func:`check_exactly_once`).
- ``checkpoint-consistency`` — replicas that attested a checkpoint at the
  same sequence attested the same state digest, and every stabilised
  checkpoint matches those attestations
  (:func:`repro.consensus.safety.check_checkpoint_consistency`).
- ``bounded-liveness`` — every sequence a non-faulty replica had
  committed by the end of the measurement window was executed once the
  deployment quiesced (:func:`repro.consensus.safety.check_bounded_liveness`),
  and the deployment made progress at all.  Only applies while faults stay
  within ``f``, no view-0 instance primary is itself faulted (recovering
  from a wedged primary takes a view change plus client retransmission,
  which operate on timescales beyond the fuzz window; under rcc that
  applies to each of the r0..r{m-1} lane primaries), and no messages were
  irrecoverably dropped (``Scenario.has_link_faults``).
- ``overload-protection`` — the flow-control bookkeeping is sound
  (:func:`repro.flow.invariants.check_flow_invariants`): no replica ever
  shed a request it had already assigned a sequence number (shedding is
  only legal pre-ordering), and every shed client request was either
  busy-NACKed or eventually completed via a retry — overload protection
  may slow clients down but never silently loses their requests.
- ``rcc-unification`` (protocol "rcc" only) — every honest replica's
  executed log is exactly the deterministic round-robin unification of
  its per-instance commit logs
  (:func:`repro.multi.unifier.check_unified_execution`), and honest
  replicas agree per (instance, instance sequence) on the committed
  digest — the cross-lane analogue of execution-order safety.

``check_client_replies`` and ``check_exactly_once`` are pure
data-in/data-out so they are directly
unit-testable and usable outside the fuzzer, matching the standalone
checkers in :mod:`repro.consensus.safety`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.consensus.safety import (
    LivenessViolation,
    SafetyViolation,
    check_bounded_liveness,
    check_checkpoint_consistency,
)
from repro.engines import ENGINES
from repro.flow.admission import RequestKey
from repro.flow.invariants import check_flow_invariants
from repro.fuzz.scenario import PRIMARY_POLICIES
from repro.storage.blockchain import ChainViolation


@dataclass(frozen=True)
class Violation:
    """One oracle failure, self-describing for artifacts and logs."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


# ----------------------------------------------------------------------
# pure checkers
# ----------------------------------------------------------------------
def check_client_replies(
    completions: Sequence[Tuple[int, Optional[int], Optional[str]]],
    executed_logs: Mapping[str, Sequence[Tuple[int, str]]],
    faulty: Sequence[str] = (),
) -> int:
    """Every completed reply must match what honest replicas executed.

    ``completions`` is a client group's completion log of (request id,
    sequence, result digest); ``executed_logs`` maps replica id to its
    executed (sequence, digest) log.  A completion requires a response
    quorum containing at least one honest replica, so the attested
    (sequence, digest) must appear in *some* non-faulty log — a missing
    sequence means a quorum acknowledged work nobody honest performed; a
    digest no honest replica executed there means the reply contradicts
    every honest order.  (Matching any honest log, not one designated
    log, keeps the check sound when speculative execution legitimately
    diverges; inter-replica agreement is the execution-order oracle's
    job.)

    Returns the number of completions cross-checked.
    """
    faulty_set = set(faulty)
    union: Dict[int, Dict[str, str]] = {}
    for rid in sorted(executed_logs):
        if rid in faulty_set:
            continue
        for sequence, digest in executed_logs[rid]:
            union.setdefault(sequence, {}).setdefault(digest, rid)
    checked = 0
    for request_id, sequence, digest in completions:
        if sequence is None or digest is None:
            continue
        checked += 1
        executed = union.get(sequence)
        if executed is None:
            raise SafetyViolation(
                f"request {request_id} completed at sequence {sequence} "
                f"but no non-faulty replica executed that sequence"
            )
        if digest not in executed:
            witness_digest = sorted(executed)[0]
            raise SafetyViolation(
                f"request {request_id} completed with digest {digest!r} at "
                f"sequence {sequence}, but replica "
                f"{executed[witness_digest]} executed {witness_digest!r} "
                f"there and no non-faulty replica executed {digest!r}"
            )
    return checked


def check_exactly_once(
    executed_requests: Mapping[str, Sequence[Tuple[int, Sequence[RequestKey]]]],
    faulty: Sequence[str] = (),
) -> int:
    """No honest replica executes one client request twice.

    ``executed_requests`` maps replica id to its executed (sequence,
    request keys) records (``Ledger.executed_requests``).  Raises
    :class:`SafetyViolation` naming the first request a non-faulty
    replica executed at two sequences (or twice in one batch); returns
    the number of request executions checked.
    """
    faulty_set = set(faulty)
    checked = 0
    for rid in sorted(executed_requests):
        if rid in faulty_set:
            continue
        first: Dict[RequestKey, int] = {}
        for sequence, keys in executed_requests[rid]:
            for key in keys:
                checked += 1
                earlier = first.get(key)
                if earlier is not None:
                    raise SafetyViolation(
                        f"replica {rid} executed request {key} twice, "
                        f"at sequences {earlier} and {sequence}"
                    )
                first[key] = sequence
    return checked


# ----------------------------------------------------------------------
# the bank
# ----------------------------------------------------------------------
def run_oracle_bank(
    system,
    scenario,
    committed_snapshot: Optional[Mapping[str, int]] = None,
) -> List[Violation]:
    """Evaluate every applicable oracle; return all violations found.

    ``committed_snapshot`` is the per-replica committed watermark sampled
    *before* the quiesce window (see ``Ledger.committed_through``); the
    liveness oracle compares it against executed watermarks now.
    """
    violations: List[Violation] = []
    byzantine = set(scenario.byzantine_targets)
    ever_crashed = set(scenario.crash_targets)
    replica_divergence_legal = _speculative_split_possible(scenario)

    # -- execution-order safety + chain validity + state convergence ----
    if not replica_divergence_legal:
        try:
            system.validate_safety(faulty=tuple(sorted(byzantine)))
        except (SafetyViolation, ChainViolation) as exc:
            violations.append(Violation("execution-order", str(exc)))

    # -- client replies match executed logs -----------------------------
    executed_logs = {
        rid: replica.ledger.executed_log for rid, replica in system.replicas.items()
    }
    for group in system.client_groups:
        try:
            check_client_replies(
                group.completion_log, executed_logs, faulty=tuple(byzantine)
            )
        except SafetyViolation as exc:
            violations.append(
                Violation("client-replies", f"{group.name}: {exc}")
            )

    # -- every client request executes at most once per replica -----------
    try:
        check_exactly_once(
            {
                rid: replica.ledger.executed_requests or ()
                for rid, replica in system.replicas.items()
            },
            faulty=tuple(byzantine),
        )
    except SafetyViolation as exc:
        violations.append(Violation("exactly-once", str(exc)))

    # -- checkpoint consistency -----------------------------------------
    if not replica_divergence_legal:
        histories = {
            rid: replica.ledger.checkpoint_digests
            for rid, replica in system.replicas.items()
        }
        try:
            check_checkpoint_consistency(
                histories, faulty=tuple(sorted(byzantine))
            )
            _check_stable_digests(system, byzantine)
        except SafetyViolation as exc:
            violations.append(Violation("checkpoint-consistency", str(exc)))

    # -- rcc: unification is sound and lanes agree across replicas --------
    if ENGINES[scenario.protocol].multi_primary:
        violations.extend(
            _check_rcc_unification(system, scenario, byzantine | ever_crashed)
        )

    # -- overload protection: shed/NACK bookkeeping stays sound -----------
    # applies unconditionally: with protection off the counters are all
    # zero and the check is vacuous; with it on, a sequence-assigned
    # request must never be shed and every shed request must have been
    # NACKed or (after a retry) completed
    for problem in check_flow_invariants(system):
        violations.append(Violation("overload-protection", problem))

    # -- bounded liveness (only while the BFT contract holds) ------------
    if committed_snapshot is not None and _liveness_applicable(scenario):
        liveness_faulty = tuple(sorted(byzantine | ever_crashed))
        executed = {
            rid: replica.ledger.executed_through
            for rid, replica in system.replicas.items()
        }
        try:
            check_bounded_liveness(
                committed_snapshot, executed, faulty=liveness_faulty
            )
        except LivenessViolation as exc:
            violations.append(Violation("bounded-liveness", str(exc)))
        completed = sum(
            group.completed_requests for group in system.client_groups
        )
        if completed == 0:
            violations.append(
                Violation(
                    "bounded-liveness",
                    "deployment made no progress: zero completed requests "
                    "with faults within f and no link faults",
                )
            )
    return violations


def _speculative_split_possible(scenario) -> bool:
    """True when replica-level logs may legally diverge: a speculative
    protocol whose view-0 primary runs an equivocation-capable policy."""
    return ENGINES[scenario.protocol].speculative and any(
        event.kind == "byzantine"
        and event.target == "r0"
        and event.policy in PRIMARY_POLICIES
        for event in scenario.events
    )


def _liveness_applicable(scenario) -> bool:
    # the view-0 (instance) primaries are r0..r{m-1} by construction
    # (Scenario.to_config); a faulted primary can legitimately stall its
    # view — e.g. a two-faced primary splits the prepare votes so neither
    # digest reaches quorum — and the view-change rescue does not reliably
    # fit in the fuzz window
    faulty = set(scenario.faulty_replicas)
    return (
        not scenario.has_link_faults
        and len(faulty) <= scenario.f
        and not faulty.intersection(scenario.instance_primaries)
        and scenario.bug is None
    )


def _check_rcc_unification(system, scenario, faulty) -> List[Violation]:
    """Protocol "rcc": per-replica, the executed log must be the
    round-robin unification of that replica's own per-instance commit
    logs; across replicas, honest lanes must agree on every (instance,
    instance sequence) digest."""
    from repro.multi.unifier import check_unified_execution, unify_commit_logs

    violations: List[Violation] = []
    lanes = range(scenario.num_primaries)
    combined: Dict[int, List[Tuple[int, str]]] = {lane: [] for lane in lanes}
    for rid in sorted(system.replicas):
        if rid in faulty:
            continue
        replica = system.replicas[rid]
        try:
            check_unified_execution(
                replica.ledger.executed_log,
                replica.engine.commit_log,
                scenario.num_primaries,
            )
        except SafetyViolation as exc:
            violations.append(Violation("rcc-unification", f"{rid}: {exc}"))
        for lane, entries in replica.engine.commit_log.items():
            combined[lane].extend(entries)
    try:
        # merging every honest replica's commit log per lane surfaces any
        # cross-replica digest disagreement as a per-lane conflict
        unify_commit_logs(combined, scenario.num_primaries)
    except SafetyViolation as exc:
        violations.append(Violation("rcc-unification", str(exc)))
    return violations


def _check_stable_digests(system, byzantine) -> None:
    """A stabilised checkpoint (2f+1 votes) must agree with the digests
    non-faulty replicas attested at that sequence."""
    attested: Dict[int, Tuple[str, str]] = {}
    for rid in sorted(system.replicas):
        if rid in byzantine:
            continue
        ledger = system.replicas[rid].ledger
        for sequence, digest in ledger.checkpoint_digests.items():
            attested.setdefault(sequence, (rid, digest))
    for rid in sorted(system.replicas):
        if rid in byzantine:
            continue
        store = system.replicas[rid].checkpoints
        if store.stable_digest is None:
            continue
        entry = attested.get(store.stable_sequence)
        if entry is not None and entry[1] != store.stable_digest:
            raise SafetyViolation(
                f"replica {rid} stabilised checkpoint {store.stable_sequence} "
                f"with digest {store.stable_digest!r}, but replica {entry[0]} "
                f"attested {entry[1]!r} there"
            )
