"""Command-line interface: run one deployment or regenerate a figure.

Examples::

    python -m repro run --replicas 16 --clients 8000 --batch-size 100
    python -m repro run --protocol zyzzyva --crash-backups 1
    python -m repro figure fig10
    python -m repro list-figures
    python -m repro fuzz --runs 50 --seed 0
    python -m repro fuzz --runs 1 --seed 0 --offset 17 --shrink
    python -m repro fuzz --replay artifacts/fuzz-run-17.json
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.core import ResilientDBSystem, SystemConfig
from repro.engines import ENGINES, PROTOCOLS
from repro.sim.clock import millis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ResilientDB reproduction (ICDCS 2020) — simulated "
        "permissioned blockchain fabric",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one deployment and report")
    run.add_argument("--protocol", choices=PROTOCOLS, default="pbft")
    run.add_argument("--primaries", type=int, default=None, metavar="M",
                     help="concurrent consensus instances for --protocol "
                     "rcc (default: 2 for rcc, 1 otherwise)")
    run.add_argument("--replicas", type=int, default=16)
    run.add_argument("--clients", type=int, default=8_000)
    run.add_argument("--client-groups", type=int, default=8)
    run.add_argument("--batch-size", type=int, default=100)
    run.add_argument("--batch-threads", type=int, default=2)
    run.add_argument("--execute-threads", type=int, default=1)
    run.add_argument("--ops-per-txn", type=int, default=1)
    run.add_argument("--cores", type=int, default=8)
    run.add_argument("--storage", choices=("memory", "sqlite"),
                     default="memory")
    run.add_argument("--client-scheme", default="ed25519",
                     choices=("none", "ed25519", "rsa", "cmac-aes"))
    run.add_argument("--replica-scheme", default="cmac-aes",
                     choices=("none", "ed25519", "rsa", "cmac-aes"))
    run.add_argument("--crash-backups", type=int, default=0)
    run.add_argument("--warmup-ms", type=float, default=120)
    run.add_argument("--measure-ms", type=float, default=200)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--records", type=int, default=60_000)
    run.add_argument("--full-fidelity", action="store_true",
                     help="real auth tokens + real state application")
    obs = run.add_argument_group("observability")
    obs.add_argument("--trace-out", metavar="PATH",
                     help="write lifecycle spans + event trace as Chrome "
                     "trace-event JSON (load at https://ui.perfetto.dev)")
    obs.add_argument("--metrics-out", metavar="PATH",
                     help="write metrics in Prometheus text format")
    obs.add_argument("--metrics-json", metavar="PATH",
                     help="write metrics + time series as JSON")
    obs.add_argument("--samples-out", metavar="PATH",
                     help="write sampled pipeline time series as CSV")
    obs.add_argument("--sample-interval-ms", type=float, default=None,
                     metavar="MS",
                     help="queue/CPU/network sampling period (default: 5ms "
                     "when --samples-out is given, else off)")
    obs.add_argument("--no-spans", action="store_true",
                     help="skip lifecycle spans (no stage-latency table); "
                     "--trace-out records them anyway, a trace needs them")
    flow = run.add_argument_group("overload protection")
    flow.add_argument("--queue-policy", choices=("block", "shed_oldest",
                                                 "reject"), default="block",
                      help="what bounded stage queues do when full "
                      "(default: block = back-pressure)")
    flow.add_argument("--batch-queue-capacity", type=int, default=None,
                      metavar="N", help="bound the primary's batch queue")
    flow.add_argument("--admission-max-inflight", type=int, default=None,
                      metavar="N", help="max consensus instances a primary "
                      "keeps in flight before busy-NACKing new requests")
    flow.add_argument("--admission-max-per-client", type=int, default=None,
                      metavar="N", help="max unexecuted requests admitted "
                      "per client group")
    flow.add_argument("--client-retransmit-ms", type=float, default=None,
                      metavar="MS", help="client retransmission base delay "
                      "(exponential backoff with deterministic jitter)")
    flow.add_argument("--client-window", type=int, default=None, metavar="N",
                      help="initial AIMD pending window per client group "
                      "(default: no window, all logical clients in flight)")
    flow.add_argument("--check-flow", action="store_true",
                      help="after the run, verify the flow-control "
                      "invariants and require nonzero goodput; nonzero "
                      "exit on violation")

    figure = commands.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure_id", help="e.g. fig10 (see list-figures)")

    commands.add_parser("list-figures", help="list regenerable figures")

    fuzz = commands.add_parser(
        "fuzz",
        help="run the deterministic scenario fuzzer",
        description="Generate randomized deployments (protocol x faults x "
        "byzantine policies x config), run each through the simulator, and "
        "judge it against the safety/liveness oracle bank.  Every run is a "
        "pure function of (--seed, scenario index), so any failure replays "
        "from the two integers printed with it.",
    )
    fuzz.add_argument("--runs", type=int, default=50,
                      help="number of scenarios to run (default: 50)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign master seed (default: 0)")
    fuzz.add_argument("--offset", type=int, default=0,
                      help="first scenario index (replay a specific run "
                      "with --offset N --runs 1)")
    fuzz.add_argument("--shrink", action="store_true",
                      help="shrink failing scenarios to a minimal fault "
                      "plan (delta debugging)")
    fuzz.add_argument("--artifacts", metavar="DIR",
                      help="write failing scenarios as replayable JSON "
                      "artifacts under DIR")
    fuzz.add_argument("--replay", metavar="FILE",
                      help="replay one scenario from an artifact (or bare "
                      "scenario) JSON file instead of generating")
    fuzz.add_argument("--profile", choices=("mixed", "overload"),
                      default="mixed",
                      help="scenario generator: 'mixed' crosses protocols "
                      "and faults (a slice with overload knobs); 'overload' "
                      "always drives a small cluster past capacity with "
                      "protection on (default: mixed)")
    return parser


def _figure_registry():
    from repro.bench import experiments

    return {
        name.split("_")[0]: getattr(experiments, name)
        for name in dir(experiments)
        if name.startswith("fig")
    }


def _command_run(args) -> int:
    sample_interval_ms = args.sample_interval_ms
    if sample_interval_ms is not None and sample_interval_ms <= 0:
        print(f"invalid --sample-interval-ms: {sample_interval_ms} "
              "(must be positive)", file=sys.stderr)
        return 2
    if sample_interval_ms is None and args.samples_out:
        sample_interval_ms = 5.0
    # fail before the (possibly long) run, not after it
    for path in (args.trace_out, args.metrics_out, args.metrics_json,
                 args.samples_out):
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                print(f"output directory does not exist: {parent}",
                      file=sys.stderr)
                return 2
    primaries = args.primaries
    if primaries is None:
        primaries = 2 if ENGINES[args.protocol].multi_primary else 1
    try:
        config = SystemConfig(
            protocol=args.protocol,
            num_primaries=primaries,
            num_replicas=args.replicas,
            num_clients=args.clients,
            client_groups=args.client_groups,
            batch_size=args.batch_size,
            batch_threads=args.batch_threads,
            execute_threads=args.execute_threads,
            ops_per_txn=args.ops_per_txn,
            cores_per_replica=args.cores,
            storage_backend=args.storage,
            client_scheme=args.client_scheme,
            replica_scheme=args.replica_scheme,
            ycsb_records=args.records,
            warmup=millis(args.warmup_ms),
            measure=millis(args.measure_ms),
            seed=args.seed,
            real_auth_tokens=args.full_fidelity,
            apply_state=args.full_fidelity,
            trace=bool(args.trace_out),
            lifecycle_spans=not args.no_spans,
            sample_interval=(
                millis(sample_interval_ms) if sample_interval_ms else None
            ),
            queue_policy=args.queue_policy,
            batch_queue_capacity=args.batch_queue_capacity,
            admission_max_inflight=args.admission_max_inflight,
            admission_max_per_client=args.admission_max_per_client,
            client_retransmit=(
                millis(args.client_retransmit_ms)
                if args.client_retransmit_ms is not None
                else None
            ),
            client_window_initial=args.client_window,
        )
    except ValueError as error:
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    system = ResilientDBSystem(config)
    try:
        system.crash_replicas(args.crash_backups)
    except ValueError as error:
        system.close()
        print(f"invalid configuration: {error}", file=sys.stderr)
        return 2
    try:
        result = system.run()
        _write_observability(args, system)
    finally:
        system.close()
    print(result.summary())
    print(f"ops/s:        {result.throughput_ops_per_s / 1e3:.1f}K")
    print(f"messages:     {result.messages_sent} "
          f"({result.bytes_sent / 1e6:.1f} MB)")
    print(f"chain height: {result.chain_height} "
          f"(stable checkpoint {result.stable_checkpoint})")
    print("primary saturation:")
    for stage, value in sorted(result.primary_saturation.items()):
        print(f"  {stage:<12} {value * 100:5.1f}%")
    if (result.busy_nacks_sent or result.requests_shed
            or result.admission_rejected):
        print(f"flow control: nacks={result.busy_nacks_sent} "
              f"(received {result.busy_nacks_received}) "
              f"shed={result.requests_shed} "
              f"admission-rejected={result.admission_rejected}")
    table = result.stage_latency_table()
    if table:
        print(table)
    if args.check_flow:
        from repro.flow import check_flow_invariants

        problems = check_flow_invariants(system)
        for problem in problems:
            print(f"flow invariant violated: {problem}", file=sys.stderr)
        if result.completed_requests == 0:
            print("flow check failed: zero goodput", file=sys.stderr)
            return 1
        if problems:
            return 1
        print("flow invariants hold", file=sys.stderr)
    return 0


def _write_observability(args, system) -> None:
    """Export whatever observability outputs the run asked for."""
    from repro.obs import chrome_trace, metrics_json, prometheus_text, sampler_csv

    def _write(path: str, payload: str, what: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {what} to {path}", file=sys.stderr)

    if args.trace_out:
        _write(
            args.trace_out,
            chrome_trace(system.spans),
            "Chrome trace (Perfetto-loadable)",
        )
    if args.metrics_out:
        _write(
            args.metrics_out,
            prometheus_text(
                system.metrics, sampler=system.sampler, spans=system.spans
            ),
            "Prometheus metrics",
        )
    if args.metrics_json:
        _write(
            args.metrics_json,
            metrics_json(
                system.metrics, sampler=system.sampler, spans=system.spans
            ),
            "JSON metrics",
        )
    if args.samples_out:
        if system.sampler is None:
            print("no sampler configured; nothing to write", file=sys.stderr)
        else:
            _write(args.samples_out, sampler_csv(system.sampler), "sampler CSV")


def _command_fuzz(args) -> int:
    from repro.fuzz import fuzz_campaign, load_scenario, run_scenario, shrink_scenario

    if args.replay:
        if not os.path.isfile(args.replay):
            print(f"no such artifact: {args.replay}", file=sys.stderr)
            return 2
        scenario = load_scenario(args.replay)
        outcome = run_scenario(scenario)
        print(outcome.summary())
        for violation in outcome.violations:
            print(f"  {violation}")
        if not outcome.ok and args.shrink:
            result = shrink_scenario(scenario)
            print(
                f"  shrunk {len(scenario.events)} -> "
                f"{len(result.scenario.events)} event(s) in "
                f"{result.attempts} attempt(s): {result.scenario.describe()}"
            )
        return 0 if outcome.ok else 1

    if args.runs <= 0:
        print(f"invalid --runs: {args.runs} (must be positive)",
              file=sys.stderr)
        return 2
    source = None
    if args.profile == "overload":
        from repro.fuzz.generator import generate_overload_scenario

        source = generate_overload_scenario
    report = fuzz_campaign(
        runs=args.runs,
        master_seed=args.seed,
        offset=args.offset,
        shrink=args.shrink,
        artifacts_dir=args.artifacts,
        scenario_source=source,
        log=print,
    )
    print(
        f"fuzz: {len(report.outcomes)} run(s), "
        f"{len(report.failures)} failure(s) "
        f"(seed {args.seed}, offset {args.offset}, "
        f"profile {args.profile}) "
        f"in {report.wall_seconds:.1f}s"
    )
    return 0 if report.ok else 1


def _command_figure(figure_id: str) -> int:
    registry = _figure_registry()
    fn = registry.get(figure_id)
    if fn is None:
        print(f"unknown figure {figure_id!r}; available: "
              f"{', '.join(sorted(registry))}", file=sys.stderr)
        return 2
    fn().print()
    return 0


def _command_list() -> int:
    for figure_id, fn in sorted(_figure_registry().items()):
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{figure_id:>8}  {doc}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "figure":
        return _command_figure(args.figure_id)
    if args.command == "fuzz":
        return _command_fuzz(args)
    return _command_list()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
