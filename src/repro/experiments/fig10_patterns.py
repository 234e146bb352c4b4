"""Figure 10: execution patterns in VSync and D-VSync.

Replays the figure's setup — the exact same series of workloads with one
heavy key frame — through both architectures and renders the runtime traces
as ASCII timelines: VSync shows three janks in a row; D-VSync's accumulated
buffers keep the present row unbroken while the long frame executes.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult
from repro.study import Study, StudyResult
from repro.testing import light_params, make_animation
from repro.trace.record import record_run
from repro.trace.render_ascii import render_queue_depth, render_timeline
from repro.units import hz_to_period

PERIOD = hz_to_period(60)


def build_pattern_driver():
    """RunSpec builder: the Fig 10 animation with one heavy key frame."""
    driver = make_animation(light_params(), "fig10-pattern", duration_ms=700)
    # One heavy key frame mid-animation, ~3.6 periods of render work: the
    # red frame of Fig 10.
    workload = driver._workloads[18]
    driver._workloads[18] = dataclasses.replace(workload, render_ns=int(3.6 * PERIOD))
    return driver


_DRIVER = DriverSpec.of("repro.experiments.fig10_patterns:build_pattern_driver")


def study(runs: int = 1, quick: bool = False) -> Study:
    """The Fig 10 matrix: the same workload under both architectures."""
    matrix = Study("fig10", analyze=_analyze)
    matrix.add(
        RunSpec(driver=_DRIVER, device=PIXEL_5, architecture="vsync", buffer_count=3),
        architecture="vsync",
    )
    matrix.add(
        RunSpec(
            driver=_DRIVER,
            device=PIXEL_5,
            architecture="dvsync",
            dvsync=DVSyncConfig(buffer_count=5),
        ),
        architecture="dvsync",
    )
    return matrix


def _analyze(result: StudyResult) -> ExperimentResult:
    baseline = result.get(architecture="vsync")
    improved = result.get(architecture="dvsync")
    rows = []
    for label, run_result in (("(a) VSync", baseline), ("(b) D-VSync", improved)):
        trace = record_run(run_result)
        rows.append([f"--- {label}: {len(run_result.effective_drops)} janks ---", ""])
        for line in render_timeline(trace, width=90).splitlines():
            rows.append([line, ""])
        rows.append([f"queue depth: {render_queue_depth(trace, width=90)}", ""])
        rows.append(["", ""])
    return ExperimentResult(
        experiment_id="fig10",
        title="Execution patterns: the same workload under VSync and D-VSync",
        headers=["timeline", ""],
        rows=rows,
        comparisons=[
            ("VSync janks from the long frame", ">= 2", len(baseline.effective_drops)),
            ("D-VSync janks from the long frame", 0, len(improved.effective_drops)),
        ],
        notes=(
            "The D-VSync queue-depth strip shows the accumulation ramp, the "
            "sync-stage plateau, and the dip where the long frame consumed "
            "the pre-rendered buffers."
        ),
    )
