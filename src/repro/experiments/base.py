"""Common shape for experiment modules.

Every experiment module exposes ``study(runs=..., quick=...)``, a
:class:`~repro.study.Study` whose ``run()`` regenerates one paper artifact as
an :class:`ExperimentResult`: the same rows/series the figure or table
reports, plus a paper-vs-measured block for EXPERIMENTS.md. ``quick=True``
trims repetitions for benchmark runs; the shape conclusions must hold in both
modes.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Sequence

from repro.metrics.report import format_table


@dataclasses.dataclass
class ExperimentResult:
    """One regenerated paper artifact."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list]
    #: ``(metric, paper, measured)`` triples, optionally extended to
    #: ``(metric, paper, measured, stdev)`` — the sample stdev across the
    #: repetitions behind the measured mean, so tables report spread.
    comparisons: list[tuple]
    notes: str = ""

    def render(self) -> str:
        """Full printable report: data table + paper-vs-measured block."""
        parts = [f"=== {self.experiment_id}: {self.title} ==="]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.comparisons:
            parts.append("")
            parts.append("paper vs measured:")
            headers = ["metric", "paper", "measured"]
            cells = [list(c) for c in self.comparisons]
            if any(len(c) > 3 for c in cells):
                headers.append("± sd")
                cells = [c + [""] * (4 - len(c)) for c in cells]
            parts.append(format_table(headers, cells))
        if self.notes:
            parts.append("")
            parts.append(self.notes)
        return "\n".join(parts)

    def measured(self, metric: str):
        """Look up one measured value from the comparisons block."""
        for comparison in self.comparisons:
            if comparison[0] == metric:
                return comparison[2]
        raise KeyError(f"no comparison metric {metric!r} in {self.experiment_id}")

    def spread(self, metric: str):
        """The per-cell sample stdev of a comparison, or ``None`` if absent."""
        for comparison in self.comparisons:
            if comparison[0] == metric:
                return comparison[3] if len(comparison) > 3 else None
        raise KeyError(f"no comparison metric {metric!r} in {self.experiment_id}")


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean with an explicit zero for empty input."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def mean_sd(values: Sequence[float]) -> tuple[float, float]:
    """(mean, sample stdev) of a slice; stdev is 0.0 below two samples."""
    values = list(values)
    if not values:
        return 0.0, 0.0
    sd = statistics.stdev(values) if len(values) >= 2 else 0.0
    return statistics.fmean(values), sd


def pct_reduction(baseline: float, improved: float) -> float:
    """Percentage reduction, 0 when the baseline is 0."""
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline * 100.0
