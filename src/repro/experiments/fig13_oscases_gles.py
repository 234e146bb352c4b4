"""Figure 13: FDPS reduction for OS use cases with the GLES backend.

Two panels: Mate 40 Pro (90 Hz, 9 drop-prone cases, 3.17 → 0.97, −69.4 %)
and Mate 60 Pro (120 Hz, 20 cases, 7.51 → 2.52, −66.4 %). Both arms use the
OpenHarmony default of 4 buffers. Both panels batch as one
:class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_40_PRO, MATE_60_PRO
from repro.experiments.base import ExperimentResult, mean_sd, pct_reduction
from repro.experiments.runner import add_comparison_arms, comparison_from_study
from repro.study import Study, StudyResult
from repro.workloads.os_cases import os_case_scenarios

PAPER = {
    "mate40-gles": {"vsync": 3.17, "dvsync": 0.97},
    "mate60-gles": {"vsync": 7.51, "dvsync": 2.52},
}
_DEVICES = {"mate40-gles": MATE_40_PRO, "mate60-gles": MATE_60_PRO}


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Fig 13 matrix: panel × case × architecture × repetition."""
    panels = []
    for config, device in _DEVICES.items():
        scenarios = os_case_scenarios(config)
        if quick:
            scenarios = scenarios[::3]
        effective_runs = min(runs, 2) if quick else runs
        panels.append((config, device, scenarios, effective_runs))
    matrix = Study("fig13", analyze=lambda result: _analyze(result, panels))
    for config, device, scenarios, effective_runs in panels:
        for scenario in scenarios:
            add_comparison_arms(
                matrix,
                scenario,
                device,
                vsync_buffers=4,
                dvsync_config=DVSyncConfig(buffer_count=4),
                runs=effective_runs,
                panel=config,
                scenario=scenario.name,
            )
    return matrix


def _analyze(result: StudyResult, panels) -> ExperimentResult:
    rows = []
    comparisons: list[tuple] = []
    for config, device, scenarios, _effective_runs in panels:
        vsync_values, dvsync_values = [], []
        for scenario in scenarios:
            comparison = comparison_from_study(
                result, scenario.name, panel=config, scenario=scenario.name
            )
            vsync_values.append(comparison.vsync_fdps)
            dvsync_values.append(comparison.dvsync_fdps)
            rows.append(
                [
                    device.name,
                    scenario.name,
                    round(comparison.vsync_fdps, 2),
                    round(comparison.dvsync_fdps, 2),
                ]
            )
        (avg_v, sd_v), (avg_d, sd_d) = mean_sd(vsync_values), mean_sd(dvsync_values)
        paper = PAPER[config]
        comparisons.extend(
            [
                (
                    f"{device.name} avg FDPS, VSync",
                    paper["vsync"],
                    round(avg_v, 2),
                    round(sd_v, 2),
                ),
                (
                    f"{device.name} avg FDPS, D-VSync",
                    paper["dvsync"],
                    round(avg_d, 2),
                    round(sd_d, 2),
                ),
                (
                    f"{device.name} FDPS reduction (%)",
                    round(pct_reduction(paper["vsync"], paper["dvsync"]), 1),
                    round(pct_reduction(avg_v, avg_d), 1),
                ),
            ]
        )
    return ExperimentResult(
        experiment_id="fig13",
        title="FDPS for OS use cases, GLES, Mate 40 Pro (90 Hz) and Mate 60 Pro (120 Hz)",
        headers=["device", "case", "vsync 4buf", "dvsync 4buf"],
        rows=rows,
        comparisons=comparisons,
    )
