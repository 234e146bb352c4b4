"""Figure 6: distribution of frames (drop / buffer stuffing / direct).

Under triple-buffered VSync, most frames wait in the queue behind older
buffers after drops occur — the buffer-stuffing latency tax. Regenerates the
per-app stacked percentages for the 25 Pixel 5 apps, batched as one
:class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.display.device import PIXEL_5
from repro.experiments.base import ExperimentResult, mean, mean_sd
from repro.experiments.runner import scenario_spec
from repro.metrics.frames import FrameOutcome, frame_distribution
from repro.study import Study, StudyResult
from repro.workloads.android_apps import app_scenarios


def study(runs: int = 2, quick: bool = False) -> Study:
    """The Fig 6 matrix: app × repetition under VSync, one batch."""
    scenarios = app_scenarios()
    if quick:
        scenarios = scenarios[::4]
        runs = 1
    matrix = Study("fig06", analyze=lambda result: _analyze(result, scenarios))
    for scenario in scenarios:
        for repetition in range(runs):
            matrix.add(
                scenario_spec(
                    scenario, PIXEL_5, "vsync", run=repetition, buffer_count=3
                ),
                scenario=scenario.name,
                rep=repetition,
            )
    return matrix


def _analyze(result: StudyResult, scenarios) -> ExperimentResult:
    rows = []
    stuffed_fracs, direct_fracs, drop_fracs = [], [], []
    for scenario in scenarios:
        fractions = {outcome: [] for outcome in FrameOutcome}
        for run_result in result.select(scenario=scenario.name):
            if run_result is None:
                continue
            distribution = frame_distribution(run_result)
            for outcome in FrameOutcome:
                fractions[outcome].append(distribution.fraction(outcome))
        drop = mean(fractions[FrameOutcome.DROP]) * 100
        stuffed = mean(fractions[FrameOutcome.STUFFED]) * 100
        direct = mean(fractions[FrameOutcome.DIRECT]) * 100
        drop_fracs.append(drop)
        stuffed_fracs.append(stuffed)
        direct_fracs.append(direct)
        rows.append(
            [scenario.name, f"{drop:.1f}", f"{stuffed:.1f}", f"{direct:.1f}"]
        )
    return ExperimentResult(
        experiment_id="fig06",
        title="Distribution of frames under VSync (Pixel 5, 25 apps)",
        headers=["app", "frame drop %", "buffer stuffing %", "direct composition %"],
        rows=rows,
        comparisons=[
            (
                "stuffed frames dominate (avg %, paper: 'most frames')",
                ">50",
                round(mean(stuffed_fracs), 1),
                round(mean_sd(stuffed_fracs)[1], 1),
            ),
            (
                "avg frame-drop share (%)",
                3.4,
                round(mean(drop_fracs), 1),
                round(mean_sd(drop_fracs)[1], 1),
            ),
        ],
    )
