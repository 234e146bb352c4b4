"""Figure 5: average and maximum frame-drop percentage per configuration.

Summarizes drops as a fraction of total display time across the four
evaluated configurations: Pixel 5 (AOSP 60 Hz GLES, avg 3.4 %), Mate 40 Pro
(OH 90 Hz GLES, 3.5 %), Mate 60 Pro GLES (6.3 %) and Vulkan (7.0 %), with the
per-case maxima (20.8 %, 7.4 %, 27.5 %, 7.8 % — the starred bars). All four
configurations batch as one :class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.display.device import MATE_40_PRO, MATE_60_PRO, MATE_60_PRO_VULKAN, PIXEL_5
from repro.experiments.base import ExperimentResult, mean, mean_sd
from repro.experiments.runner import scenario_spec
from repro.metrics.fdps import drop_fraction
from repro.study import Study, StudyResult
from repro.workloads.android_apps import app_scenarios
from repro.workloads.os_cases import os_case_scenarios

# (label, device, scenario list builder, baseline buffers, paper avg %, paper max %)
_CONFIGS = [
    ("Pixel 5 (AOSP 60Hz, GLES)", PIXEL_5, lambda: app_scenarios(), 3, 3.4, 20.8),
    ("Mate 40 Pro (OH 90Hz, GLES)", MATE_40_PRO, lambda: os_case_scenarios("mate40-gles"), 4, 3.5, 7.4),
    ("Mate 60 Pro (OH 120Hz, GLES)", MATE_60_PRO, lambda: os_case_scenarios("mate60-gles"), 4, 6.3, 27.5),
    ("Mate 60 Pro (OH 120Hz, Vulkan)", MATE_60_PRO_VULKAN, lambda: os_case_scenarios("mate60-vulkan"), 4, 7.0, 7.8),
]


def study(runs: int = 2, quick: bool = False) -> Study:
    """The Fig 5 matrix: configuration × scenario × repetition, one batch."""
    configs = []
    for label, device, build, buffers, paper_avg, paper_max in _CONFIGS:
        scenarios = build()
        if quick:
            scenarios = scenarios[::4]
        effective_runs = 1 if quick else runs
        configs.append((label, device, scenarios, buffers, paper_avg, paper_max, effective_runs))
    matrix = Study("fig05", analyze=lambda result: _analyze(result, configs))
    for label, device, scenarios, buffers, _pa, _pm, effective_runs in configs:
        for scenario in scenarios:
            for repetition in range(effective_runs):
                matrix.add(
                    scenario_spec(
                        scenario, device, "vsync", run=repetition, buffer_count=buffers
                    ),
                    config=label,
                    scenario=scenario.name,
                    rep=repetition,
                )
    return matrix


def _analyze(result: StudyResult, configs) -> ExperimentResult:
    rows = []
    comparisons: list[tuple] = []
    for label, _device, scenarios, _buffers, paper_avg, paper_max, _runs in configs:
        per_case = []
        for scenario in scenarios:
            chunk = [
                r
                for r in result.select(config=label, scenario=scenario.name)
                if r is not None
            ]
            per_case.append(mean([drop_fraction(r) * 100 for r in chunk]))
        (avg_pct, sd_pct), max_pct = mean_sd(per_case), max(per_case, default=0.0)
        rows.append([label, round(avg_pct, 1), round(max_pct, 1)])
        comparisons.append(
            (f"{label}: avg FD %", paper_avg, round(avg_pct, 1), round(sd_pct, 1))
        )
        comparisons.append((f"{label}: max FD %", paper_max, round(max_pct, 1)))
    return ExperimentResult(
        experiment_id="fig05",
        title="Frame drops as % of display time (VSync baseline, per configuration)",
        headers=["configuration", "avg FD %", "max FD %"],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "Drop-prone cases only, as in the figure; percentages are janks "
            "over total display slots."
        ),
    )
