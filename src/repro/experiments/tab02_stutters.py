"""Table 2: user-perceived stutters in professional UX evaluation tasks.

Each task is a train of consecutive operations on the Mate 60 Pro; the
perceptual model of :mod:`repro.metrics.stutter` stands in for the trained
evaluators (a repeated frame during visible motion, §6.2). Paper average:
72.3 % fewer perceived stutters under D-VSync. The task × architecture ×
repetition grid batches as one :class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

import dataclasses

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO
from repro.experiments.base import ExperimentResult, mean, mean_sd, pct_reduction
from repro.experiments.runner import scenario_spec
from repro.metrics.stutter import count_perceived_stutters
from repro.study import Study, StudyResult
from repro.workloads.scenarios import Scenario

PAPER_AVG_REDUCTION = 72.3


@dataclasses.dataclass(frozen=True)
class UXTask:
    """One Table 2 row: a scripted multi-operation task."""

    name: str
    description: str
    operations: int
    vsync_fdps: float
    profile: str
    paper_vsync: int
    paper_dvsync: int


# Operation counts follow the task scripts; per-task drop rates and tail
# profiles are chosen so the VSync-arm stutter counts land near the paper's,
# making the D-VSync counts predictions of the scheduler + perception model.
TASKS: tuple[UXTask, ...] = (
    UXTask("cold-top20", "Cold start/close Top 20 apps, slide multitasking", 45, 2.0, "fluctuation-deep", 20, 12),
    UXTask("cold-news", "Cold start Top 10 news/social apps, swipe up", 20, 4.5, "fluctuation", 28, 3),
    UXTask("hot-news", "Hot start Top 10 news/social apps, swipe up", 20, 4.0, "fluctuation", 25, 2),
    UXTask("game-switch", "Game to news app and back, x5", 10, 5.5, "fluctuation", 20, 3),
    UXTask("video-comments", "Short-video comments, next video, x5", 10, 5.5, "fluctuation", 20, 2),
    UXTask("music", "Music page swipes and play, x5", 10, 2.0, "scattered", 7, 0),
    UXTask("shopping", "Shopping products page and details", 12, 24.0, "skewed", 14, 13),
    UXTask("lifestyle", "Lifestyle ads and nearby restaurants", 16, 9.5, "fluctuation-deep", 40, 10),
)


def _task_scenario(task: UXTask, run_index: int) -> Scenario:
    return Scenario(
        name=f"ux-{task.name}",
        description=task.description,
        refresh_hz=MATE_60_PRO.refresh_hz,
        target_vsync_fdps=task.vsync_fdps,
        profile=task.profile,
        duration_ms=400.0,
        bursts=task.operations,
        burst_period_ms=600.0,
    )


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Table 2 matrix: task × architecture × repetition, one batch."""
    tasks = TASKS[:4] if quick else TASKS
    effective_runs = 2 if quick else runs
    matrix = Study(
        "tab02", analyze=lambda result: _analyze(result, tasks, effective_runs)
    )
    for task in tasks:
        scenario = _task_scenario(task, 0)
        for repetition in range(effective_runs):
            matrix.add(
                scenario_spec(
                    scenario, MATE_60_PRO, "vsync", run=repetition, buffer_count=4
                ),
                task=task.name,
                architecture="vsync",
                rep=repetition,
            )
        for repetition in range(effective_runs):
            matrix.add(
                scenario_spec(
                    scenario,
                    MATE_60_PRO,
                    "dvsync",
                    run=repetition,
                    dvsync_config=DVSyncConfig(buffer_count=4),
                ),
                task=task.name,
                architecture="dvsync",
                rep=repetition,
            )
    return matrix


def _analyze(result: StudyResult, tasks, effective_runs: int) -> ExperimentResult:
    rows = []
    vsync_totals, dvsync_totals = [], []
    reductions = []
    for task in tasks:
        scenario = _task_scenario(task, 0)
        vsync_counts, dvsync_counts = [], []
        for repetition in range(effective_runs):
            # The perception model needs the animation-speed curve; rebuild
            # the (deterministic) driver the spec describes for analysis.
            driver = scenario.build_driver(repetition)
            vsync_run = result.get(
                task=task.name, architecture="vsync", rep=repetition
            )
            dvsync_run = result.get(
                task=task.name, architecture="dvsync", rep=repetition
            )
            if vsync_run is None or dvsync_run is None:
                continue  # keep-going hole: drop the pair, keep the task
            vsync_counts.append(
                count_perceived_stutters(vsync_run, speed_at=driver.animation_speed)
            )
            dvsync_counts.append(
                count_perceived_stutters(dvsync_run, speed_at=driver.animation_speed)
            )
        vsync_stutters = mean(vsync_counts)
        dvsync_stutters = mean(dvsync_counts)
        vsync_totals.append(vsync_stutters)
        dvsync_totals.append(dvsync_stutters)
        reductions.append(pct_reduction(vsync_stutters, dvsync_stutters))
        rows.append(
            [
                task.description,
                f"{vsync_stutters:.0f} (paper {task.paper_vsync})",
                f"{dvsync_stutters:.0f} (paper {task.paper_dvsync})",
                f"{reductions[-1]:.0f}%",
            ]
        )
    measured_reduction = pct_reduction(sum(vsync_totals), sum(dvsync_totals))
    return ExperimentResult(
        experiment_id="tab02",
        title="Perceived stutters per UX task (Mate 60 Pro)",
        headers=["task", "vsync", "dvsync", "reduction"],
        rows=rows,
        comparisons=[
            (
                "avg stutter reduction (%)",
                PAPER_AVG_REDUCTION,
                round(measured_reduction, 1),
                round(mean_sd(reductions)[1], 1),
            ),
        ],
        notes=(
            "Stutters are perceived drop episodes: >=2 consecutive missed "
            "refreshes, or a single miss during above-JND motion."
        ),
    )
