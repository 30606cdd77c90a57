"""Result containers and paper-style text tables for the bench harness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List


def format_stage_latency(stage_latency: Dict[str, Dict[str, float]]) -> str:
    """Render a per-stage latency breakdown (``ExperimentResult.stage_latency``)
    as a text table — the "where did the p99 go" view.

    Latency between consecutive stamped pipeline hand-offs is attributed
    to the later stage; ``total`` is submit → reply.  Returns "" when no
    spans were collected (observability disabled or no completions).
    """
    if not stage_latency:
        return ""
    lines = ["-- stage latency (ms) --"]
    lines.append(f"{'stage':<10} {'count':>9} {'mean':>9} {'p50':>9} {'p99':>9}")
    for stage, stats in stage_latency.items():
        lines.append(
            f"{stage:<10} {int(stats['count']):>9}"
            f" {stats['mean_s'] * 1e3:>9.3f}"
            f" {stats['p50_s'] * 1e3:>9.3f}"
            f" {stats['p99_s'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)


@dataclass
class SeriesPoint:
    """One (x, y) measurement of a figure's series."""

    x: object
    throughput_txns_per_s: float
    latency_s: float
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class Series:
    """One line of a figure (e.g. "PBFT 2B 1E")."""

    name: str
    points: List[SeriesPoint] = field(default_factory=list)

    def throughputs(self) -> List[float]:
        return [point.throughput_txns_per_s for point in self.points]

    def latencies(self) -> List[float]:
        return [point.latency_s for point in self.points]

    def xs(self) -> List[object]:
        return [point.x for point in self.points]


@dataclass
class FigureResult:
    """All series regenerating one figure, plus shape notes."""

    figure_id: str
    title: str
    x_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: free-form run metadata (config knobs, scale) carried into the JSON
    #: export so a ``BENCH_<id>.json`` is self-describing
    meta: Dict[str, object] = field(default_factory=dict)

    def get(self, name: str) -> Series:
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError(f"no series named {name!r} in {self.figure_id}")

    def note(self, text: str) -> None:
        self.notes.append(text)

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """Render throughput and latency tables like the paper's plots.

        Rows are every x any series measured, in first-seen order; each
        series' value is looked up by x, so a series that skips some x
        (a single crash point, say) prints ``nan`` on the rows it lacks.
        """
        lines = [f"== {self.figure_id}: {self.title} =="]
        by_x = [{point.x: point for point in series.points} for series in self.series]
        xs = list(dict.fromkeys(x for points in by_x for x in points))
        header = f"{self.x_label:>14} " + " ".join(
            f"{series.name:>22}" for series in self.series
        )
        tables = (
            ("throughput (txns/s)", " {:>20.1f}K",
             lambda point: point.throughput_txns_per_s / 1e3),
            ("latency (s)", " {:>21.4f}", lambda point: point.latency_s),
        )
        for title, cell, value in tables:
            lines += [f"-- {title} --", header]
            for x in xs:
                row = f"{str(x):>14} "
                for points in by_x:
                    point = points.get(x)
                    row += cell.format(
                        float("nan") if point is None else value(point)
                    )
                lines.append(row)
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console output
        print(self.format_table())

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A machine-readable mirror of :meth:`format_table`: every series
        point with its throughput, mean latency and extras (the ``_point``
        helper stashes p99 latency and ops/s there)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "meta": dict(self.meta),
            "notes": list(self.notes),
            "series": [
                {
                    "name": series.name,
                    "points": [
                        {
                            "x": point.x,
                            "throughput_txns_per_s": point.throughput_txns_per_s,
                            "latency_s": point.latency_s,
                            "extra": dict(point.extra),
                        }
                        for point in series.points
                    ],
                }
                for series in self.series
            ],
        }


def write_figure_json(figure: FigureResult, path: str) -> str:
    """Persist ``figure`` as JSON (the ``BENCH_<figure_id>.json`` export
    the bench harness drops at the repo root).  Returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(figure.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
