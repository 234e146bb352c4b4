"""Figure 12: FDPS reduction for OS use cases, Vulkan backend, Mate 60 Pro.

29 drop-prone cases at 120 Hz; both arms use 4 buffers (the OpenHarmony
render-service default). Paper: 8.42 → 1.39 (−83.5 %). All cases batch as
one :class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO_VULKAN
from repro.experiments.base import ExperimentResult, mean_sd, pct_reduction
from repro.experiments.runner import add_comparison_arms, comparison_from_study
from repro.study import Study, StudyResult
from repro.workloads.os_cases import os_case_scenarios

PAPER_VSYNC = 8.42
PAPER_DVSYNC = 1.39


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Fig 12 matrix: case × architecture × repetition, one batch."""
    scenarios = os_case_scenarios("mate60-vulkan")
    if quick:
        scenarios = scenarios[::4]
        runs = min(runs, 2)
    matrix = Study("fig12", analyze=lambda result: _analyze(result, scenarios))
    for scenario in scenarios:
        add_comparison_arms(
            matrix,
            scenario,
            MATE_60_PRO_VULKAN,
            vsync_buffers=4,
            dvsync_config=DVSyncConfig(buffer_count=4),
            runs=runs,
            scenario=scenario.name,
        )
    return matrix


def _analyze(result: StudyResult, scenarios) -> ExperimentResult:
    rows = []
    vsync_values, dvsync_values = [], []
    for scenario in scenarios:
        comparison = comparison_from_study(
            result, scenario.name, scenario=scenario.name
        )
        vsync_values.append(comparison.vsync_fdps)
        dvsync_values.append(comparison.dvsync_fdps)
        rows.append(
            [scenario.name, round(comparison.vsync_fdps, 2), round(comparison.dvsync_fdps, 2)]
        )
    (avg_v, sd_v), (avg_d, sd_d) = mean_sd(vsync_values), mean_sd(dvsync_values)
    return ExperimentResult(
        experiment_id="fig12",
        title="FDPS for OS use cases, Vulkan, Mate 60 Pro (120 Hz)",
        headers=["case", "vsync 4buf", "dvsync 4buf"],
        rows=rows,
        comparisons=[
            ("avg FDPS, VSync", PAPER_VSYNC, round(avg_v, 2), round(sd_v, 2)),
            ("avg FDPS, D-VSync", PAPER_DVSYNC, round(avg_d, 2), round(sd_d, 2)),
            (
                "FDPS reduction (%)",
                round(pct_reduction(PAPER_VSYNC, PAPER_DVSYNC), 1),
                round(pct_reduction(avg_v, avg_d), 1),
            ),
        ],
    )
