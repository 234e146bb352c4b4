"""The paper's headline averages (§1, §6).

Aggregates the figure experiments into the three numbers the abstract leads
with: frame drops −72.7 %, user-perceptible stutters −72.3 %, rendering
latency −31.1 %.

The six source experiments form one :class:`~repro.study.CompositeStudy`:
their matrices union into a single executor batch, and any spec a source
figure shares with another (or that ``--all`` already ran) collapses by
content hash instead of simulating again.
"""

from __future__ import annotations

from repro.experiments import (
    fig11_apps_fdps,
    fig12_oscases_vulkan,
    fig13_oscases_gles,
    fig14_games,
    fig15_latency,
    tab02_stutters,
)
from repro.experiments.base import ExperimentResult, mean
from repro.study import CompositeStudy

PAPER_FD_REDUCTION = 72.7
PAPER_STUTTER_REDUCTION = 72.3
PAPER_LATENCY_REDUCTION = 31.1


def study(runs: int = 2, quick: bool = False) -> CompositeStudy:
    """The headline matrix: every source figure's cells, one batch."""
    return CompositeStudy(
        "headline",
        parts=[
            fig11_apps_fdps.study(runs=runs, quick=quick),
            fig12_oscases_vulkan.study(runs=runs, quick=quick),
            fig13_oscases_gles.study(runs=runs, quick=quick),
            fig14_games.study(runs=runs, quick=quick),
            fig15_latency.study(runs=runs, quick=quick),
            tab02_stutters.study(runs=runs, quick=quick),
        ],
        combine=_combine,
    )


def _combine(parts: list[ExperimentResult]) -> ExperimentResult:
    fig11, fig12, fig13, fig14, fig15, tab02 = parts
    fd_reductions = [
        fig11.measured("FDPS reduction, 4 bufs (%)"),
        fig12.measured("FDPS reduction (%)"),
        fig13.measured("Mate 40 Pro FDPS reduction (%)"),
        fig13.measured("Mate 60 Pro FDPS reduction (%)"),
        fig14.measured("FDPS reduction, 4 bufs (%)"),
    ]
    fd_reduction = mean(fd_reductions)
    stutter_reduction = tab02.measured("avg stutter reduction (%)")
    latency_reduction = fig15.measured("avg latency reduction (%)")

    rows = [
        ["frame drops (avg reduction %)", PAPER_FD_REDUCTION, round(fd_reduction, 1)],
        ["user-perceptible stutters (%)", PAPER_STUTTER_REDUCTION, round(stutter_reduction, 1)],
        ["rendering latency (%)", PAPER_LATENCY_REDUCTION, round(latency_reduction, 1)],
    ]
    return ExperimentResult(
        experiment_id="headline",
        title="Headline averages across all evaluations",
        headers=["metric", "paper", "measured"],
        rows=rows,
        comparisons=[
            ("frame-drop reduction (%)", PAPER_FD_REDUCTION, round(fd_reduction, 1)),
            ("stutter reduction (%)", PAPER_STUTTER_REDUCTION, round(stutter_reduction, 1)),
            ("latency reduction (%)", PAPER_LATENCY_REDUCTION, round(latency_reduction, 1)),
        ],
    )
