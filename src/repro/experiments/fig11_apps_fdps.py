"""Figure 11: FDPS reduction for 25 Android apps on Google Pixel 5.

Per app: VSync with triple buffering vs D-VSync with 4/5/7 buffers, 1,000
frames of swiping at 60 Hz. Paper averages: 2.04 → 0.58 (4 buf, −71.6 %),
0.25 (5 buf, −87.7 %), 0.06 (7 buf). The per-app contrast the paper calls
out: Walmart's scattered drops vanish, QQMusic's skewed distribution resists
even 7 buffers.

The whole app × buffer-sweep matrix (25 apps × 4 arms × runs) is one
:class:`~repro.study.Study`: the VSync arm is identical across the three
buffer sweeps, so dedup collapses it to a single run per app repetition.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.experiments.base import ExperimentResult, mean_sd, pct_reduction
from repro.experiments.runner import add_comparison_arms, comparison_from_study
from repro.study import Study, StudyResult
from repro.workloads.android_apps import app_scenarios

PAPER = {"vsync": 2.04, 4: 0.58, 5: 0.25, 7: 0.06}
BUFFER_SWEEP = (4, 5, 7)


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Fig 11 matrix: app × buffer sweep × repetition, one batch."""
    scenarios = app_scenarios()
    if quick:
        # Keep the analysis anchors (Walmart/QQMusic) plus a light spread.
        keep = {"Walmart", "QQMusic", "Facebook", "Reddit", "Bilibili", "Pinterest"}
        scenarios = [s for s in scenarios if s.name in keep]
        runs = min(runs, 2)
    matrix = Study("fig11", analyze=lambda result: _analyze(result, scenarios))
    for scenario in scenarios:
        for buffers in BUFFER_SWEEP:
            add_comparison_arms(
                matrix,
                scenario,
                PIXEL_5,
                vsync_buffers=3,
                dvsync_config=DVSyncConfig(buffer_count=buffers),
                runs=runs,
                scenario=scenario.name,
                buffers=buffers,
            )
    return matrix


def _analyze(result: StudyResult, scenarios) -> ExperimentResult:
    rows = []
    averages: dict[object, list[float]] = {"vsync": [], 4: [], 5: [], 7: []}
    for scenario in scenarios:
        row = [scenario.name]
        vsync_values = None
        for buffers in BUFFER_SWEEP:
            comparison = comparison_from_study(
                result, scenario.name, scenario=scenario.name, buffers=buffers
            )
            if vsync_values is None:
                vsync_values = comparison.vsync_fdps
                row.append(round(vsync_values, 2))
                averages["vsync"].append(vsync_values)
            row.append(round(comparison.dvsync_fdps, 2))
            averages[buffers].append(comparison.dvsync_fdps)
        rows.append(row)
    stats = {key: mean_sd(vals) for key, vals in averages.items()}
    avg = {key: pair[0] for key, pair in stats.items()}
    comparisons: list[tuple] = [
        (
            "avg FDPS, VSync 3 bufs",
            PAPER["vsync"],
            round(avg["vsync"], 2),
            round(stats["vsync"][1], 2),
        ),
    ]
    for buffers in BUFFER_SWEEP:
        comparisons.append(
            (
                f"avg FDPS, D-VSync {buffers} bufs",
                PAPER[buffers],
                round(avg[buffers], 2),
                round(stats[buffers][1], 2),
            )
        )
        paper_red = pct_reduction(PAPER["vsync"], PAPER[buffers])
        measured_red = pct_reduction(avg["vsync"], avg[buffers])
        comparisons.append(
            (
                f"FDPS reduction, {buffers} bufs (%)",
                round(paper_red, 1),
                round(measured_red, 1),
            )
        )
    return ExperimentResult(
        experiment_id="fig11",
        title="FDPS for 25 apps on Pixel 5 (60 Hz): VSync vs D-VSync 4/5/7 bufs",
        headers=["app", "vsync 3buf", "dvsync 4buf", "dvsync 5buf", "dvsync 7buf"],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "Walmart (scattered long frames < 3 periods) is fixed by the "
            "default window; QQMusic's skewed distribution improves least, "
            "matching the paper's analysis."
        ),
    )
