"""§6.6: the Chromium browser case study.

The decoupled scheme applied to the browser compositor pre-renders frames
during fling animations. Paper: average FDPS over the Sina, Weather, and
AI Life pages falls from 1.47 to 0.08 (−94.3 %). The page × architecture ×
repetition grid batches as one :class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.apps.chromium import (
    CHROMIUM_PAPER_BASELINE_FDPS,
    CHROMIUM_PAPER_DVSYNC_FDPS,
    PAGES,
    ChromiumFlingDriver,
)
from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO
from repro.errors import WorkloadError
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult, mean, pct_reduction
from repro.metrics.fdps import fdps
from repro.study import Study, StudyResult

PAPER_REDUCTION = 94.3


def build_fling_driver(page: str, repetition: int) -> ChromiumFlingDriver:
    """RunSpec builder: one fling repetition over a recorded page."""
    for candidate in PAGES:
        if candidate.name == page:
            return ChromiumFlingDriver(candidate, MATE_60_PRO.refresh_hz, repetition)
    raise WorkloadError(f"unknown Chromium page {page!r}")


def study(runs: int = 3, quick: bool = False) -> Study:
    """The §6.6 matrix: page × architecture × repetition, one batch."""
    effective_runs = 2 if quick else runs
    matrix = Study(
        "chromium", analyze=lambda result: _analyze(result, effective_runs)
    )
    for page in PAGES:
        for repetition in range(effective_runs):
            driver = DriverSpec.of(
                "repro.experiments.chromium_case:build_fling_driver",
                page=page.name,
                repetition=repetition,
            )
            matrix.add(
                RunSpec(
                    driver=driver,
                    device=MATE_60_PRO,
                    architecture="vsync",
                    buffer_count=4,
                ),
                page=page.name,
                architecture="vsync",
                rep=repetition,
            )
            matrix.add(
                RunSpec(
                    driver=driver,
                    device=MATE_60_PRO,
                    architecture="dvsync",
                    dvsync=DVSyncConfig(buffer_count=5),
                ),
                page=page.name,
                architecture="dvsync",
                rep=repetition,
            )
    return matrix


def _analyze(result: StudyResult, effective_runs: int) -> ExperimentResult:
    rows = []
    vsync_all, dvsync_all = [], []
    for page in PAGES:
        pairs = result.pairs(
            {"architecture": "vsync"}, {"architecture": "dvsync"}, page=page.name
        )
        vsync_values = [fdps(baseline) for baseline, _ in pairs]
        dvsync_values = [fdps(improved) for _, improved in pairs]
        vsync_all.extend(vsync_values)
        dvsync_all.extend(dvsync_values)
        rows.append(
            [page.name, round(mean(vsync_values), 2), round(mean(dvsync_values), 2)]
        )
    avg_v, avg_d = mean(vsync_all), mean(dvsync_all)
    return ExperimentResult(
        experiment_id="chromium",
        title="Chromium compositor flings: VSync vs decoupled pre-rendering",
        headers=["page", "vsync FDPS", "dvsync FDPS"],
        rows=rows,
        comparisons=[
            ("avg FDPS, VSync", CHROMIUM_PAPER_BASELINE_FDPS, round(avg_v, 2)),
            ("avg FDPS, D-VSync", CHROMIUM_PAPER_DVSYNC_FDPS, round(avg_d, 2)),
            ("FDPS reduction (%)", PAPER_REDUCTION, round(pct_reduction(avg_v, avg_d), 1)),
        ],
    )
