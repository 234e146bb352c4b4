"""Appendix A: the full 75-case OS rendering benchmark.

The appendix positions the 75 use cases as "a benchmark that comprehensively
tests the performance of the OS rendering service, providing a reference for
the follow-up research". This experiment runs the *entire* Table 3 suite —
drop-prone and clean cases alike — on the Mate 60 Pro GLES configuration and
prints the reference table: category, description, VSync and D-VSync FDPS.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO
from repro.experiments.base import ExperimentResult, mean, pct_reduction
from repro.experiments.runner import scenario_spec
from repro.metrics.fdps import fdps
from repro.study import Study, StudyResult
from repro.workloads.os_cases import os_case_scenarios, use_case


def study(runs: int = 2, quick: bool = False) -> Study:
    """The Appendix A matrix: the whole 75-case × 2-arm × runs sweep.

    The benchmark the appendix positions for follow-up research is exactly
    the embarrassingly-parallel shape the study layer exists for — every
    cell fans out in one supervised batch.
    """
    scenarios = os_case_scenarios("mate60-gles", drop_prone_only=False)
    if quick:
        scenarios = scenarios[::6]
    effective_runs = 1 if quick else runs
    matrix = Study("appendix", analyze=lambda result: _analyze(result, scenarios))
    pairs = [
        (scenario, repetition)
        for scenario in scenarios
        for repetition in range(effective_runs)
    ]
    for scenario, repetition in pairs:
        matrix.add(
            scenario_spec(
                scenario, MATE_60_PRO, "vsync", run=repetition, buffer_count=4
            ),
            scenario=scenario.name,
            architecture="vsync",
            rep=repetition,
        )
    for scenario, repetition in pairs:
        matrix.add(
            scenario_spec(
                scenario,
                MATE_60_PRO,
                "dvsync",
                run=repetition,
                dvsync_config=DVSyncConfig(buffer_count=4),
            ),
            scenario=scenario.name,
            architecture="dvsync",
            rep=repetition,
        )
    return matrix


def _analyze(result: StudyResult, scenarios) -> ExperimentResult:
    rows = []
    vsync_values, dvsync_values = [], []
    clean_cases = 0
    for scenario in scenarios:
        case = use_case(scenario.name)
        vsync_case = mean(
            [
                fdps(r)
                for r in result.select(scenario=scenario.name, architecture="vsync")
                if r is not None
            ]
        )
        dvsync_case = mean(
            [
                fdps(r)
                for r in result.select(scenario=scenario.name, architecture="dvsync")
                if r is not None
            ]
        )
        vsync_values.append(vsync_case)
        dvsync_values.append(dvsync_case)
        if vsync_case == 0:
            clean_cases += 1
        rows.append(
            [case.number, case.category, case.abbreviation,
             round(vsync_case, 2), round(dvsync_case, 2)]
        )
    drop_prone = sum(1 for value in vsync_values if value > 0.2)
    return ExperimentResult(
        experiment_id="appendix",
        title="Appendix A: 75 OS use cases, Mate 60 Pro GLES reference benchmark",
        headers=["#", "category", "case", "vsync FDPS", "dvsync FDPS"],
        rows=rows,
        comparisons=[
            (
                "cases with frame drops under VSync (GLES)",
                20,
                drop_prone,
            ),
            (
                "suite-wide FDPS reduction (%)",
                ">60",
                round(pct_reduction(sum(vsync_values), sum(dvsync_values)), 1),
            ),
        ],
        notes=(
            "Cases absent from Fig 13 had no drops in the paper; their "
            "generators carry a zero key-frame rate and verify as clean here."
        ),
    )
