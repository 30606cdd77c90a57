"""Safety-invariant checkers used by tests, fuzzing, and property harnesses.

The fundamental BFT guarantee the paper leans on (§4.5–4.6): all non-faulty
replicas establish *a single common order* — the sequences of executed
batch digests at any two non-faulty replicas must be consistent prefixes of
one another, with no gaps and no divergence.

Beyond execution-order consistency this module provides the standalone
oracles the scenario fuzzer (:mod:`repro.fuzz`) composes into its bank:
state convergence, checkpoint consistency across replicas, and bounded
liveness (everything committed eventually executes while faults stay
within ``f``).  Each checker takes plain data (state convergence takes
the record stores themselves), so it is equally usable against a live
:class:`~repro.core.system.ResilientDBSystem`, a replayed trace, or
hand-built fixtures in unit tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple

if TYPE_CHECKING:
    from repro.storage.base import KVStore


class SafetyViolation(AssertionError):
    """Raised when replica execution logs contradict BFT safety."""


class LivenessViolation(AssertionError):
    """Raised when committed work failed to execute within the allowed lag."""


def check_execution_consistency(
    logs: Dict[str, Sequence[Tuple[int, str]]],
    faulty: Sequence[str] = (),
) -> int:
    """Validate the executed (sequence, digest) logs of a deployment.

    ``logs`` maps replica id to its executed log, in execution order.
    Checks, for every non-faulty replica:

    1. execution order equals sequence order, starting at 1, with no gaps
       and no duplicates;
    2. any two replicas agree on the digest of every sequence both
       executed (prefix consistency).

    Returns the length of the shortest non-faulty log (the common prefix
    length proven identical).
    """
    non_faulty = {rid: log for rid, log in logs.items() if rid not in set(faulty)}
    if not non_faulty:
        raise SafetyViolation("no non-faulty logs to check")

    for rid, log in non_faulty.items():
        expected = 1
        for sequence, _digest in log:
            if sequence != expected:
                raise SafetyViolation(
                    f"replica {rid} executed sequence {sequence}, expected "
                    f"{expected} (out-of-order or gap)"
                )
            expected += 1

    reference: Dict[int, Tuple[str, str]] = {}
    for rid, log in non_faulty.items():
        for sequence, digest in log:
            if sequence in reference:
                ref_rid, ref_digest = reference[sequence]
                if digest != ref_digest:
                    raise SafetyViolation(
                        f"divergence at sequence {sequence}: replica {ref_rid} "
                        f"executed {ref_digest!r}, replica {rid} executed "
                        f"{digest!r}"
                    )
            else:
                reference[sequence] = (rid, digest)

    return min(len(log) for log in non_faulty.values())


def check_state_convergence(stores: Mapping[str, "KVStore"], faulty=()) -> None:
    """All non-faulty replicas that executed the same prefix must hold the
    same record store contents.

    ``stores`` maps replica id to its record store; the comparison is the
    stores' own ``differing_keys``, which never materialises a store.
    """
    items = [
        (rid, store) for rid, store in stores.items() if rid not in set(faulty)
    ]
    if len(items) < 2:
        return
    ref_rid, reference = items[0]
    for rid, store in items[1:]:
        differing = reference.differing_keys(store)
        if differing:
            sample = sorted(differing)[:5]
            raise SafetyViolation(
                f"state divergence between {ref_rid} and {rid} on "
                f"{len(differing)} keys (sample: {sample})"
            )


def check_checkpoint_consistency(
    histories: Mapping[str, Mapping[int, str]],
    faulty: Sequence[str] = (),
) -> int:
    """Validate the checkpoints a deployment's replicas have emitted.

    ``histories`` maps replica id to ``{checkpoint sequence: state digest}``
    — the digest the replica attested to after executing that sequence
    (§4.7).  Because the state digest is a deterministic fold of the
    executed batches, any two non-faulty replicas reaching the same
    checkpoint sequence must attest to the same digest; a mismatch means
    their states silently diverged even if their logs look consistent.

    Returns the number of distinct checkpoint sequences cross-checked.
    """
    non_faulty = {
        rid: history
        for rid, history in histories.items()
        if rid not in set(faulty)
    }
    reference: Dict[int, Tuple[str, str]] = {}
    for rid, history in sorted(non_faulty.items()):
        for sequence, digest in history.items():
            if sequence in reference:
                ref_rid, ref_digest = reference[sequence]
                if digest != ref_digest:
                    raise SafetyViolation(
                        f"checkpoint divergence at sequence {sequence}: "
                        f"replica {ref_rid} attested {ref_digest!r}, replica "
                        f"{rid} attested {digest!r}"
                    )
            else:
                reference[sequence] = (rid, digest)
    return len(reference)


def check_bounded_liveness(
    committed: Mapping[str, int],
    executed: Mapping[str, int],
    faulty: Sequence[str] = (),
    max_lag: int = 0,
) -> int:
    """Every committed sequence must eventually execute (faults within f).

    ``committed`` maps replica id to the highest sequence that replica has
    locally committed (handed to its execution layer); ``executed`` maps it
    to the highest sequence actually executed.  The caller samples
    ``committed`` at some instant, gives the system time to quiesce, then
    samples ``executed`` — a non-faulty replica still more than ``max_lag``
    sequences behind its own earlier commit point is wedged (typically
    parked behind an execution gap that nothing will ever fill).

    Returns the highest committed sequence among non-faulty replicas.
    """
    faulty_set = set(faulty)
    highest = 0
    for rid in sorted(committed):
        if rid in faulty_set:
            continue
        committed_seq = committed[rid]
        executed_seq = executed.get(rid, 0)
        highest = max(highest, committed_seq)
        if executed_seq < committed_seq - max_lag:
            raise LivenessViolation(
                f"replica {rid} committed through sequence {committed_seq} "
                f"but executed only through {executed_seq} "
                f"(allowed lag {max_lag})"
            )
    return highest
