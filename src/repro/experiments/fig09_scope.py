"""Figure 9: the scope of the D-VSync approach.

The paper classifies a typical user's frames: ~85 % deterministic animations
(pre-renderable with no app changes), ~10 % predictable interactions (need
the IPL), ~5 % real-time content (D-VSync stays off) — 95 % total coverage.
This experiment runs a representative day-mix of scenarios and measures what
fraction of frames each channel actually carried.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult
from repro.pipeline.frame import FrameCategory
from repro.study import Study, StudyResult
from repro.units import ms
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver

PAPER_SHARES = {"animation": 85.0, "interaction": 10.0, "realtime": 5.0}
PAPER_COVERAGE = 95.0

# A day-mix driver: categories assigned per frame with Fig 9's weights.
_WEIGHTS = {
    FrameCategory.DETERMINISTIC_ANIMATION: 0.85,
    FrameCategory.PREDICTABLE_INTERACTION: 0.10,
    FrameCategory.REALTIME: 0.05,
}


def build_daymix_driver(repetition: int, bursts: int) -> AnimationDriver:
    """RunSpec builder: the Fig 9 day-mix animation for one repetition."""
    params = params_for_target_fdps(1.5, PIXEL_5.refresh_hz)
    return AnimationDriver(
        f"fig09-daymix#{repetition}",
        params,
        duration_ns=ms(400),
        bursts=bursts,
        burst_period_ns=ms(600),
        category_weights=_WEIGHTS,
    )


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Fig 9 matrix: one D-VSync cell per repetition."""
    effective_runs = 2 if quick else runs
    bursts = 8 if quick else 24
    matrix = Study("fig09", analyze=_analyze)
    for repetition in range(effective_runs):
        matrix.add(
            RunSpec(
                driver=DriverSpec.of(
                    "repro.experiments.fig09_scope:build_daymix_driver",
                    repetition=repetition,
                    bursts=bursts,
                ),
                device=PIXEL_5,
                architecture="dvsync",
                dvsync=DVSyncConfig(buffer_count=4),
            ),
            rep=repetition,
        )
    return matrix


def _analyze(result: StudyResult) -> ExperimentResult:
    totals = {category: 0 for category in FrameCategory}
    decoupled_frames = 0
    total_frames = 0
    for run_result in result.select():
        if run_result is None:
            continue
        for frame in run_result.frames:
            totals[frame.workload.category] += 1
            total_frames += 1
            if frame.decoupled:
                decoupled_frames += 1
    share = {
        category: totals[category] / max(1, total_frames) * 100
        for category in FrameCategory
    }
    coverage = decoupled_frames / max(1, total_frames) * 100
    rows = [
        ["deterministic animations (oblivious channel)",
         PAPER_SHARES["animation"], round(share[FrameCategory.DETERMINISTIC_ANIMATION], 1)],
        ["predictable interactions (IPL extension)",
         PAPER_SHARES["interaction"], round(share[FrameCategory.PREDICTABLE_INTERACTION], 1)],
        ["real-time content (D-VSync off)",
         PAPER_SHARES["realtime"], round(share[FrameCategory.REALTIME], 1)],
    ]
    return ExperimentResult(
        experiment_id="fig09",
        title="Scope of D-VSync: frame categories and decoupling coverage",
        headers=["category", "paper %", "measured %"],
        rows=rows,
        comparisons=[
            ("frames actually pre-rendered (%)", PAPER_COVERAGE, round(coverage, 1)),
        ],
        notes=(
            "Real-time frames route to the traditional VSync path via the "
            "runtime controller; everything else rides the decoupled channel."
        ),
    )
