"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_run_command_executes(capsys):
    code = main([
        "run",
        "--replicas", "4",
        "--clients", "64",
        "--client-groups", "4",
        "--batch-size", "8",
        "--records", "500",
        "--warmup-ms", "30",
        "--measure-ms", "60",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput=" in out
    assert "chain height:" in out
    assert "primary saturation:" in out


def test_run_with_crashes(capsys):
    code = main([
        "run",
        "--replicas", "4",
        "--clients", "32",
        "--client-groups", "2",
        "--batch-size", "4",
        "--records", "200",
        "--warmup-ms", "20",
        "--measure-ms", "40",
        "--crash-backups", "1",
    ])
    assert code == 0


@pytest.mark.parametrize("count", ["2", "-1"])
def test_run_rejects_a_crash_count_outside_zero_to_f(count, capsys):
    assert main(FAST_RUN + ["--crash-backups", count]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "cannot crash" in err
    assert "Traceback" not in err


FAST_RUN = [
    "run",
    "--replicas", "4",
    "--clients", "32",
    "--client-groups", "2",
    "--batch-size", "4",
    "--records", "200",
    "--warmup-ms", "20",
    "--measure-ms", "40",
]


def test_run_prints_stage_latency_breakdown(capsys):
    assert main(FAST_RUN) == 0
    out = capsys.readouterr().out
    assert "stage latency" in out
    for column in ("stage", "p50", "p99"):
        assert column in out
    for stage in ("input", "batch", "execute", "reply", "total"):
        assert stage in out


def test_run_no_spans_suppresses_stage_table(capsys):
    assert main(FAST_RUN + ["--no-spans"]) == 0
    assert "stage latency" not in capsys.readouterr().out


def test_run_observability_outputs(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.json"
    prom = tmp_path / "metrics.prom"
    js = tmp_path / "metrics.json"
    csv = tmp_path / "samples.csv"
    code = main(FAST_RUN + [
        "--trace-out", str(trace),
        "--metrics-out", str(prom),
        "--metrics-json", str(js),
        "--samples-out", str(csv),
    ])
    assert code == 0

    doc = json.loads(trace.read_text())
    assert doc["traceEvents"] and doc["displayTimeUnit"] == "ns"
    assert {e["ph"] for e in doc["traceEvents"]} >= {"M", "X", "i"}

    prom_text = prom.read_text()
    assert "# TYPE repro_txns_completed_total counter" in prom_text
    assert "repro_stage_total_seconds_count" in prom_text

    metrics = json.loads(js.read_text())
    assert "total" in metrics["stage_latency"]

    lines = csv.read_text().splitlines()
    assert lines[0] == "time_ns,series,value"
    assert len(lines) > 1

    err = capsys.readouterr().err
    assert "wrote" in err


def test_run_rejects_nonpositive_sample_interval(capsys):
    assert main(FAST_RUN + ["--sample-interval-ms", "0"]) == 2
    assert "invalid --sample-interval-ms" in capsys.readouterr().err


def test_run_rejects_missing_output_directory(capsys):
    code = main(FAST_RUN + ["--trace-out", "/nonexistent/dir/trace.json"])
    assert code == 2
    assert "output directory does not exist" in capsys.readouterr().err


def test_run_reports_an_invalid_config_without_a_traceback(capsys):
    assert main(["run", "--replicas", "3"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "at least 4 replicas" in err
    assert "Traceback" not in err


def test_run_rejects_a_batch_queue_bound_without_batch_threads(capsys):
    args = FAST_RUN + [
        "--batch-threads", "0", "--queue-policy", "reject",
        "--batch-queue-capacity", "4",
    ]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "batch_threads" in err
    assert "Traceback" not in err


def test_run_rejects_primaries_for_a_single_lane_engine(capsys):
    assert main(FAST_RUN + ["--protocol", "pbft", "--primaries", "2"]) == 2
    assert "one consensus lane" in capsys.readouterr().err


def test_run_samples_out_defaults_interval(tmp_path):
    csv = tmp_path / "samples.csv"
    assert main(FAST_RUN + ["--samples-out", str(csv)]) == 0
    # 60ms run at the 5ms default interval -> 12 sampling points
    times = {line.split(",")[0] for line in csv.read_text().splitlines()[1:]}
    assert len(times) == 12


def test_list_figures(capsys):
    assert main(["list-figures"]) == 0
    out = capsys.readouterr().out
    for figure_id in ("fig01", "fig10", "fig17"):
        assert figure_id in out


def test_unknown_figure_rejected(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_bad_protocol_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--protocol", "raft"])
