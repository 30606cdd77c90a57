"""Tests for the bench harness: result containers, tables, base config."""

import pytest

from repro.bench import FigureResult, Series, SeriesPoint, run_config
from repro.bench.runner import base_config
from repro.sim.clock import millis


def make_figure():
    series = Series("PBFT")
    series.points = [
        SeriesPoint(x=4, throughput_txns_per_s=100_000.0, latency_s=0.1),
        SeriesPoint(x=16, throughput_txns_per_s=150_000.0, latency_s=0.2),
    ]
    return FigureResult("fig-test", "a test figure", "replicas", [series])


def test_series_accessors():
    figure = make_figure()
    series = figure.get("PBFT")
    assert series.xs() == [4, 16]
    assert series.throughputs() == [100_000.0, 150_000.0]
    assert series.latencies() == [0.1, 0.2]


def test_get_unknown_series_raises():
    figure = make_figure()
    with pytest.raises(KeyError):
        figure.get("ghost")


def test_format_table_contains_everything():
    figure = make_figure()
    figure.note("shape holds")
    table = figure.format_table()
    assert "fig-test" in table
    assert "100.0K" in table and "150.0K" in table
    assert "0.1000" in table and "0.2000" in table
    assert "note: shape holds" in table
    assert "replicas" in table


def test_format_table_lines_a_sparse_series_up_by_x():
    # one crash run at x=2 beside a full sweep, as in fig18
    figure = FigureResult("fig-sparse", "sparse", "primaries")
    figure.series.append(Series("full", [
        SeriesPoint(x, 1000.0 * x, 0.01 * x) for x in (1, 2, 3)
    ]))
    figure.series.append(Series("crash", [SeriesPoint(2, 7000.0, 0.07)]))
    figure.series.append(Series("extra", [SeriesPoint(4, 9000.0, 0.09)]))
    lines = figure.format_table().splitlines()
    throughput = lines[3:7]
    latency = lines[9:13]
    assert [line.split() for line in throughput] == [
        ["1", "1.0K", "nanK", "nanK"],
        ["2", "2.0K", "7.0K", "nanK"],
        ["3", "3.0K", "nanK", "nanK"],
        ["4", "nanK", "nanK", "9.0K"],
    ]
    assert [line.split() for line in latency] == [
        ["1", "0.0100", "nan", "nan"],
        ["2", "0.0200", "0.0700", "nan"],
        ["3", "0.0300", "nan", "nan"],
        ["4", "nan", "nan", "0.0900"],
    ]


def test_base_config_defaults_match_paper_regime():
    config = base_config()
    assert config.num_replicas == 16
    assert config.batch_size == 100
    assert config.protocol == "pbft"
    # fidelity knobs that cost host CPU are off for benches
    assert not config.real_auth_tokens
    assert not config.apply_state


def test_base_config_overrides():
    config = base_config(num_replicas=32, protocol="zyzzyva")
    assert config.num_replicas == 32
    assert config.protocol == "zyzzyva"


def test_run_config_executes_and_closes():
    config = base_config(
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=8,
        ycsb_records=500,
        warmup=millis(30),
        measure=millis(60),
    )
    result = run_config(config)
    assert result.completed_requests > 0


def test_run_config_with_crashes():
    config = base_config(
        num_replicas=4,
        num_clients=64,
        client_groups=4,
        batch_size=8,
        ycsb_records=500,
        warmup=millis(30),
        measure=millis(60),
    )
    result = run_config(config, crash_backups=1)
    assert result.completed_requests > 0


def test_cumulative_saturation_sums_stages():
    from repro.core.system import ExperimentResult

    result = ExperimentResult(
        throughput_txns_per_s=0,
        throughput_ops_per_s=0,
        latency_mean_s=0,
        latency_p50_s=0,
        latency_p99_s=0,
        latency_max_s=0,
        completed_requests=0,
        completed_txns=0,
        primary_saturation={"worker": 0.5, "batch-0": 0.9},
        backup_saturation={"worker": 0.25},
    )
    assert result.cumulative_saturation("primary") == pytest.approx(1.4)
    assert result.cumulative_saturation("backup") == pytest.approx(0.25)
