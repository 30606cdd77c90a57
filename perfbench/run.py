"""The repository benchmark: one named workload, checked and measured.

Usage, from the repository root::

    python3 perfbench/run.py --workload pbft-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` does one
untraced and one traced run and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Two kinds of number come out.  The *simulated* metrics (throughput,
latency, served fraction, outage) and the model fingerprint are a pure
function of the workload and ``--seed``, so they repeat exactly.  One
invocation runs the workload once at each of its ``runs`` derived seeds
(``SystemConfig.seed = seed * 1000 + i``), each in a fresh interpreter
process, and reports medians over them; it then repeats runs while the
``--seconds`` budget lasts, and each repeat must reproduce its first run
bit for bit.  The *host* metrics are host µs per committed transaction in
the window, scaled to a nominal interpreter speed by ``probe.py``; the
median of several set-up times, scaled the same way; and the median over
run processes of their peak RSS.

After every run, outside the timed region, a correctness gate checks
single-common-order and chain integrity, the flow-control invariants on
``pbft-failover``, and identical record stores after a drain on
``rcc-exec``.  Any violation counts as a failed operation and makes the
command exit non-zero.  ``attempted`` counts the client requests completed
in all measured windows.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from probe import PROBE_NOMINAL_S, SpeedProbe, chase_table, probe_once

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_SEED = 1
#: set-ups each run process times for the setup_s median: at least
#: MIN_SETUPS and MIN_SETUP_SECONDS of them (some take milliseconds), but
#: no more than MAX_SETUPS
MIN_SETUPS = 1
MIN_SETUP_SECONDS = 0.2
MAX_SETUPS = 10
#: a run process that takes longer than this is killed and fails the run
RUN_TIMEOUT_S = 100
#: simulated time a drain runs after the window with clients silenced
DRAIN_NS = 50_000_000
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; refuse to measure
    any other copy of the program."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from src/: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


@dataclass
class Rep:
    """One build + warm-up + measurement window of a workload."""

    seed: int
    setup_s: float
    warmup_s: float
    #: window host seconds, excluding the speed probe's own time
    window_s: float
    #: mean probe seconds in the window (None in traced runs, which
    #: carry no probe so the tracer sees only the program)
    probe_s: Optional[float]
    txns: int
    completions: int
    #: simulated end-to-end metrics (exactly repeatable for a seed)
    sim: Dict[str, float]
    fingerprint: str
    #: per-layer metrics derived from the program's own counters
    layer: Dict[str, float]
    violations: List[str] = field(default_factory=list)


def _flow_totals(system) -> Dict[str, int]:
    replicas = system.replicas.values()
    return {
        "nacks": sum(g.busy_nacks_received for g in system.client_groups),
        "issued": sum(g.next_request_id for g in system.client_groups),
        "admission_rejected": sum(
            r.admission.rejected_inflight + r.admission.rejected_per_client
            for r in replicas
        ),
        "shed": sum(r.flow.shed_requests for r in replicas),
    }


def _queue_wait(queue) -> tuple:
    stats = queue.stats()
    return stats["dequeued"], stats["mean_wait"] * stats["dequeued"]


class _Window:
    """Notified by ``MetricsRegistry.begin_measurement`` (as a resettable)
    when the measurement window opens: stamps host time, snapshots the
    cumulative counters and starts tracing, if any."""

    def __init__(self, system, instrumentation):
        self.system = system
        self.instrumentation = instrumentation
        self.host_start: Optional[float] = None
        self.probe: Optional[SpeedProbe] = None

    def reset_window(self) -> None:
        system = self.system
        primary = system.replicas[system.replica_ids[0]]
        self.flow = _flow_totals(system)
        self.views = {rid: r.engine.view for rid, r in system.replicas.items()}
        self.logs = {
            rid: len(r.executed_log) for rid, r in system.replicas.items()
        }
        self.batch_wait = _queue_wait(primary.batch_queue)
        self.work_wait = _queue_wait(primary.work_queue)
        self.sim_start = system.sim.now
        if self.instrumentation is not None:
            self.instrumentation.activate()
        self.host_start = time.perf_counter()
        if self.instrumentation is None:
            # probe time falls inside the window and is subtracted from it
            self.probe = SpeedProbe(
                system.sim, until=system.sim.now + system.config.measure
            )


def _completion_times(system):
    """Swap in a ``request_latency`` histogram that also keeps each
    completion's simulated time, so outage is observed from outside."""
    from repro.sim.metrics import LatencyHistogram

    class CompletionTimes(LatencyHistogram):
        __slots__ = ("times",)

        def __init__(self):
            super().__init__("request_latency")
            self.times: List[int] = []

        def record(self, latency: int) -> None:
            super().record(latency)
            self.times.append(system.sim.now)

        def reset(self) -> None:
            super().reset()
            self.times = []

    histogram = CompletionTimes()
    system.metrics.histograms["request_latency"] = histogram
    return histogram


def _fingerprint(replica) -> str:
    """Digest of one replica's executed (sequence, batch digest) log and
    chain head: equal exactly when the modelled history is."""
    digest = hashlib.sha256()
    for sequence, batch_digest in replica.executed_log:
        digest.update(f"{sequence}:{batch_digest};".encode("utf-8"))
    digest.update(replica.chain.head().block_hash().encode("utf-8"))
    return digest.hexdigest()[:16]


def _gate(system, workload, result, faulty) -> List[str]:
    from repro.consensus.safety import SafetyViolation
    from repro.flow.invariants import check_flow_invariants
    from repro.storage.blockchain import ChainViolation

    problems = []
    if result.completed_txns <= 0:
        problems.append("no transactions committed in the window")
    if workload.check_convergence:
        # silence the clients and let in-flight batches finish, so every
        # live replica reaches the same log length and the record stores
        # become comparable (validate_safety compares equal-length ones)
        for group in system.client_groups:
            system.faults.crash(group.name)
        system.sim.run(until=system.sim.now + DRAIN_NS)
        lengths = {
            len(r.executed_log)
            for rid, r in system.replicas.items() if rid not in faulty
        }
        if len(lengths) != 1:
            problems.append(f"replicas did not converge after drain: {lengths}")
    try:
        system.validate_safety(faulty=tuple(faulty))
    except (SafetyViolation, ChainViolation) as exc:
        problems.append(f"safety: {exc}")
    if workload.check_flow:
        problems.extend(check_flow_invariants(system))
    return problems


def run_once(workload, seed: int, tracer=None) -> Rep:
    """Build, warm up, measure one window, then check the outputs."""
    from metrics import longest_gap, per_txn, served_fraction
    from repro.consensus.messages import NULL_BATCH_DIGEST
    from tracing import Instrumentation

    config = workload.config(seed)
    if tracer is not None:
        # stage stamps record timestamps only; they never change the model
        config = config.with_options(lifecycle_spans=True)
    system, setup_s = _build(config)
    try:
        completions = _completion_times(system)
        instrumentation = Instrumentation(tracer) if tracer else None
        window = _Window(system, instrumentation)
        system.metrics.register_resettable(window)
        faulty = []
        if workload.crash_primary_after is not None:
            faulty.append(system.crash_primary(
                at_ns=config.warmup + workload.crash_primary_after
            ))
        started = time.perf_counter()
        try:
            result = system.run()
        finally:
            if instrumentation is not None:
                instrumentation.deactivate()
        ended = time.perf_counter()
        probe_total = window.probe.total_s if window.probe else 0.0
        window_end = system.sim.now
        txns = result.completed_txns

        flow = _flow_totals(system)
        refusals = flow["nacks"] - window.flow["nacks"]
        sim_metrics = {
            "tput_txns_s": result.throughput_txns_per_s,
            "lat_p50_ms": result.latency_p50_s * 1e3,
            "lat_p99_ms": result.latency_p99_s * 1e3,
            "served_frac": served_fraction(result.completed_requests, refusals),
            "outage_ms": longest_gap(
                completions.times, window.sim_start, window_end
            ) / 1e6,
        }

        live = [
            rid for rid in system.replica_ids
            if not system.faults.is_crashed(rid, window_end)
        ]
        reference = system.replicas[live[0]]
        window_log = reference.executed_log[window.logs[live[0]]:]
        null_batches = sum(1 for _, d in window_log if d == NULL_BATCH_DIGEST)
        primary = system.replicas[system.replica_ids[0]]

        def saturation(stage: str) -> float:
            return max(
                (v for k, v in result.primary_saturation.items()
                 if k.split("-")[0] == stage),
                default=0.0,
            )

        def wait_ms(before, queue) -> float:
            dequeued, total = _queue_wait(queue)
            count = dequeued - before[0]
            return (total - before[1]) / count / 1e6 if count else 0.0

        layer = {
            "net.msgs_per_txn": per_txn(result.messages_sent, txns),
            "net.bytes_per_txn": per_txn(result.bytes_sent, txns),
            "net.dropped": float(result.dropped_messages),
            "consensus.view_changes": float(max(
                system.replicas[rid].engine.view - window.views[rid]
                for rid in live
            )),
            "consensus.txns_per_batch": (
                txns / (len(window_log) - null_batches)
                if len(window_log) > null_batches else 0.0
            ),
            "core.qwait.batch_ms": wait_ms(window.batch_wait, primary.batch_queue),
            "core.qwait.work_ms": wait_ms(window.work_wait, primary.work_queue),
            "flow.busy_nacks": float(refusals),
            "flow.admission_rejected": float(
                flow["admission_rejected"] - window.flow["admission_rejected"]
            ),
            "flow.shed": float(flow["shed"] - window.flow["shed"]),
            "multi.skip_batch_frac": (
                null_batches / len(window_log) if window_log else 0.0
            ),
        }
        for stage in ("batch", "execute", "worker", "input", "output"):
            layer[f"core.sat.{stage}"] = saturation(stage)
        if tracer is not None:
            layer.update(_traced_layers(
                tracer, result, txns, flow["issued"] - window.flow["issued"]
            ))

        violations = _gate(system, workload, result, faulty)
        return Rep(
            seed=seed,
            setup_s=setup_s,
            warmup_s=window.host_start - started,
            window_s=ended - window.host_start - probe_total,
            probe_s=window.probe.mean_s if window.probe else None,
            txns=txns,
            completions=result.completed_requests,
            sim=sim_metrics,
            fingerprint=_fingerprint(reference),
            layer=layer,
            violations=violations,
        )
    finally:
        system.close()


def _traced_layers(tracer, result, txns: int, issued: int) -> Dict[str, float]:
    from metrics import per_txn
    from repro.obs.spans import STAGES

    def host_us(prefix: str) -> float:
        return per_txn(tracer.layer_self_ns(prefix) / 1e3, txns)

    events = tracer.calls_of("sim.schedule")
    resends = tracer.calls_of("net.send.client_request") - issued
    layer = {
        "sim.events_per_txn": per_txn(events, txns),
        "sim.host_ns_per_event": (
            tracer.layer_self_ns("sim") / events if events else 0.0
        ),
        "net.host_us_per_txn": host_us("net"),
        "core.retransmits_per_req": resends / issued if issued else 0.0,
        "storage.reads_per_txn": per_txn(tracer.calls_of("storage.read"), txns),
        "storage.writes_per_txn": per_txn(tracer.calls_of("storage.write"), txns),
        "storage.host_us_per_txn": host_us("storage"),
        "crypto.auth_calls_per_txn": per_txn(tracer.calls_of("crypto"), txns),
        "crypto.host_us_per_txn": host_us("crypto"),
        "workloads.host_us_per_txn": host_us("workloads"),
    }
    for stage in ("batch", "worker", "execute", "input", "output", "client"):
        layer[f"core.host_us_per_txn.{stage}"] = host_us(f"core.{stage}")
    # "propose" is stamped at the instant "batch" is, so it is always 0
    for stage in [st for st in STAGES[1:] if st != "propose"] + ["total"]:
        row = result.stage_latency.get(stage)
        layer[f"core.stage_p50_ms.{stage}"] = row["p50_s"] * 1e3 if row else 0.0
    return layer


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _build(config):
    """Build the deployment; returns it with its set-up host seconds,
    scaled by probes run just before and after."""
    from metrics import speed_scaled
    from repro.core.system import ResilientDBSystem

    gc.collect()
    before = probe_once()
    started = time.perf_counter()
    system = ResilientDBSystem(config)
    setup_s = time.perf_counter() - started
    probe_s = (before + probe_once()) / 2
    return system, speed_scaled(setup_s, probe_s, PROBE_NOMINAL_S)


def run_seeds(seed: int, runs: int) -> List[int]:
    """The distinct ``SystemConfig`` seeds one invocation runs."""
    return [seed * 1_000 + i for i in range(runs)]


def _differs(rep: Rep, first: Rep) -> List[str]:
    if rep.fingerprint == first.fingerprint and rep.sim == first.sim:
        return []
    return [
        f"a rerun at one seed diverged: fingerprint {rep.fingerprint} vs "
        f"{first.fingerprint}, simulated metrics {rep.sim} vs {first.sim}"
    ]


def _combined_fingerprint(reps: List[Rep]) -> str:
    joined = ",".join(rep.fingerprint for rep in reps)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def one_run(workload, seed: int) -> dict:
    """The body of one run process: one run, the peak RSS it reached, and
    a few more timed set-ups."""
    rep = run_once(workload, seed)
    peak_rss_mb = _peak_rss_mb()
    setups = [rep.setup_s]
    while len(setups) < MAX_SETUPS and (
        len(setups) < MIN_SETUPS or sum(setups) < MIN_SETUP_SECONDS
    ):
        system, setup_s = _build(workload.config(seed))
        system.close()
        del system  # free it before the next build; the host's memory is shared
        setups.append(setup_s)
    return {"rep": asdict(rep), "peak_rss_mb": peak_rss_mb, "setups": setups}


def _run_process(workload, seed: int) -> dict:
    """Run one seed in a fresh interpreter.  Host time for identical work
    differs by several percent from one process to the next (address
    layout, allocator state), so separate processes let medians average
    that out, and no run inherits another's heap."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload.name, "--one-run", str(seed),
    ]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: run at seed {seed} exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: run at seed {seed} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload, seed: int, seconds: float):
    """Untraced: run every seed of the workload once, each in its own
    process, then repeat them in turn while the ``seconds`` budget lasts
    (each repeat must reproduce its first run exactly).  Simulated metrics
    are medians over the distinct seeds; host metrics are medians over
    every run."""
    from metrics import per_txn, speed_scaled

    seeds = run_seeds(seed, workload.runs)
    started = time.perf_counter()
    reps: List[Rep] = []
    peaks: List[float] = []
    setups: List[float] = []
    while True:
        rep_started = time.perf_counter()
        result = _run_process(workload, seeds[len(reps) % len(seeds)])
        rep = Rep(**result["rep"])
        if len(reps) >= len(seeds):
            rep.violations.extend(_differs(rep, reps[len(reps) % len(seeds)]))
        reps.append(rep)
        peaks.append(result["peak_rss_mb"])
        setups.extend(result["setups"])
        now = time.perf_counter()
        # stop before a further run would overrun the budget
        if len(reps) >= len(seeds) and (now - started) + (now - rep_started) > seconds:
            break
    distinct = reps[:len(seeds)]
    median = statistics.median
    metrics = {
        name: median([rep.sim[name] for rep in distinct]) for name in distinct[0].sim
    }
    metrics["host_us_per_txn"] = median([
        per_txn(speed_scaled(rep.window_s, rep.probe_s, PROBE_NOMINAL_S) * 1e6, rep.txns)
        for rep in reps
    ])
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = median(peaks)
    return reps, _combined_fingerprint(distinct), metrics


def measure_traced(workload, seed: int):
    """One untraced and one traced run of the first seed; per-layer metrics
    from the traced one, and the tracing overhead from their window host
    times.  Tracing must not change the simulated results."""
    from tracing import SpanTracer

    first_seed = run_seeds(seed, 1)[0]
    untraced = run_once(workload, first_seed)
    tracer = SpanTracer()
    traced = run_once(workload, first_seed, tracer=tracer)
    traced.violations.extend(_differs(traced, untraced))
    if tracer.depth:
        traced.violations.append(f"{tracer.depth} spans left open")
    metrics = dict(traced.layer)
    metrics["sim.warmup_host_s"] = traced.warmup_s
    metrics["obs.trace_overhead_frac"] = traced.window_s / untraced.window_s - 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.json")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} retained -> {os.path.relpath(path, ROOT)}")
    return [untraced, traced], untraced.fingerprint, metrics


def declared_metrics(traced: bool) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them: the
    end-to-end list for untraced runs, the per-layer list for traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        entries = json.load(spec)["per_layer" if traced else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``.  String hashing is randomised
    per process, and with large str-keyed tables (rcc-exec's record
    stores) host time then differs by ±10% from one process to the next
    for identical work.  The simulated results never depend on it."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the body of one run process (see _run_process)
    parser.add_argument("--one-run", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    chase_table()  # the probe's table is built before anything is timed

    if args.one_run is not None:
        print(json.dumps(one_run(workload, args.one_run)))
        return 0
    if args.trace:
        reps, fingerprint, metrics = measure_traced(workload, args.seed)
    else:
        reps, fingerprint, metrics = measure(workload, args.seed, args.seconds)
    violations = [v for rep in reps for v in rep.violations]

    units = declared_metrics(bool(args.trace))
    if set(units) != set(metrics):
        raise SystemExit(
            "perfbench: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    print(
        f"workload {workload.name} seed {args.seed} runs {len(reps)} "
        f"fingerprint {fingerprint}"
    )
    for rep in reps:
        print(
            f"  seed {rep.seed}: fingerprint {rep.fingerprint}, "
            f"{rep.completions} latency samples, setup {rep.setup_s:.3f} s, "
            f"warm-up {rep.warmup_s:.3f} s, window {rep.window_s:.3f} s"
            + (f", probe {rep.probe_s * 1e3:.2f} ms" if rep.probe_s else "")
        )
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:16.6f} {unit}")
    for problem in violations:
        print(f"VIOLATION: {problem}")
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(rep.completions for rep in reps),
        "failed": len(violations),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if violations else 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
