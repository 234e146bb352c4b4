"""Experiment registry: every paper artifact, addressable by id.

``run_experiment("fig11")`` regenerates one artifact (its whole matrix goes
out as one supervised executor batch); ``run_all()`` unions **every**
experiment's study into a single global batch before analysing each, so the
full paper-vs-measured report that EXPERIMENTS.md records fans out at full
executor width with cross-experiment content-hash dedup.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ReproError
from repro.exec.executor import get_default_executor
from repro.experiments import (
    ablations,
    appendix_a,
    chromium_case,
    costs,
    dvfs_case,
    fig01_cdf,
    fig03_pixels,
    fig04_features,
    fig05_fd_summary,
    fig06_frame_distribution,
    fig07_touch_latency,
    fig09_scope,
    fig10_patterns,
    fig11_apps_fdps,
    fig12_oscases_vulkan,
    fig13_oscases_gles,
    fig14_games,
    fig15_latency,
    fig16_map_case,
    headline,
    power_case,
    tab01_platforms,
    tab02_stutters,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import DEFAULT_RUNS
from repro.study import Study, StudyStats, execute_studies

#: ``experiment id -> study(runs=, quick=)``, in report order: every paper
#: artifact's declarative matrix. :func:`run_experiment` runs one;
#: :func:`run_all` unions them into one global batch.
STUDIES: dict[str, Callable[..., Study]] = {
    "fig01": fig01_cdf.study,
    "fig03": fig03_pixels.study,
    "fig04": fig04_features.study,
    "fig05": fig05_fd_summary.study,
    "fig06": fig06_frame_distribution.study,
    "fig07": fig07_touch_latency.study,
    "fig09": fig09_scope.study,
    "fig10": fig10_patterns.study,
    "fig11": fig11_apps_fdps.study,
    "fig12": fig12_oscases_vulkan.study,
    "fig13": fig13_oscases_gles.study,
    "fig14": fig14_games.study,
    "fig15": fig15_latency.study,
    "fig16": fig16_map_case.study,
    "tab01": tab01_platforms.study,
    "tab02": tab02_stutters.study,
    "cost": costs.study,
    "power": power_case.study,
    "chromium": chromium_case.study,
    "appendix": appendix_a.study,
    "dvfs": dvfs_case.study,
    "ablations": ablations.study,
    "headline": headline.study,
}

#: Every experiment id, in report order.
EXPERIMENTS: tuple[str, ...] = tuple(STUDIES)

#: Stats of the most recent :func:`run_all` union submission (observability;
#: the CLI's study progress line reads this).
last_union_stats: StudyStats | None = None


def run_experiment(
    experiment_id: str, runs: int = DEFAULT_RUNS, quick: bool = False
) -> ExperimentResult:
    """Regenerate one paper artifact by id.

    The experiment's whole matrix is submitted as a single supervised
    executor batch. Executor activity (simulated runs, cache hits, wall
    time) accumulated while the experiment ran is appended to the result's
    notes as an ``exec:`` line — observability, not data, so
    table/comparison content is unaffected by cache state or parallelism.
    """
    try:
        build = STUDIES[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: {sorted(STUDIES)}"
        ) from None
    executor = get_default_executor()
    before = executor.stats.snapshot()
    started = time.perf_counter()
    result = build(runs=runs, quick=quick).run()
    elapsed = time.perf_counter() - started
    delta = executor.stats.since(before)
    if delta.total_requests:
        line = f"exec: {delta.describe()}; experiment wall time {elapsed:.2f}s"
        result.notes = f"{result.notes}\n{line}" if result.notes else line
    return result


def run_all(
    runs: int = DEFAULT_RUNS, quick: bool = False, skip: set[str] | None = None
) -> list[ExperimentResult]:
    """Regenerate every artifact from **one** global executor batch.

    Every experiment's study is built first (headline last, since it reuses
    the figure matrices), the union of all their spec cells goes out as a
    single ``map_outcome`` submission — identical specs across experiments
    (headline vs its source figures, shared baselines) collapse by content
    hash — and each study's analysis then runs over its keyed slice.
    """
    global last_union_stats
    skip = skip or set()
    order = [key for key in EXPERIMENTS if key not in skip and key != "headline"]
    if "headline" not in skip:
        order.append("headline")
    studies = [STUDIES[key](runs=runs, quick=quick) for key in order]

    executor = get_default_executor()
    before = executor.stats.snapshot()
    started = time.perf_counter()
    study_results, stats = execute_studies(studies, executor=executor)
    last_union_stats = stats

    results = [study_result.analyze() for study_result in study_results]

    elapsed = time.perf_counter() - started
    delta = executor.stats.since(before)
    if delta.total_requests and results:
        line = (
            f"exec (union of {len(order)} experiments): {delta.describe()}; "
            f"study: {stats.describe()}; wall time {elapsed:.2f}s"
        )
        last = results[-1]
        last.notes = f"{last.notes}\n{line}" if last.notes else line
    return results
