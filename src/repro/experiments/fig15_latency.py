"""Figure 15: rendering-latency reduction per device.

The paper's script measures, across all recorded traces, the duration from
each frame's execution anchor to its present fence: 45.8 → 31.2 ms on
Pixel 5, 32.2 → 22.3 ms on Mate 40 Pro, 24.2 → 16.8 ms on Mate 60 Pro — a
31.1 % average reduction from eliminating buffer stuffing. All three
device panels batch as one :class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_40_PRO, MATE_60_PRO, PIXEL_5
from repro.experiments.base import ExperimentResult, mean, mean_sd, pct_reduction
from repro.experiments.runner import scenario_spec
from repro.metrics.latency import latency_summary
from repro.study import Study, StudyResult
from repro.workloads.android_apps import app_scenarios
from repro.workloads.os_cases import os_case_scenarios

PAPER = {
    "Google Pixel 5": (45.8, 31.2),
    "Mate 40 Pro": (32.2, 22.3),
    "Mate 60 Pro": (24.2, 16.8),
}
PAPER_AVG_REDUCTION = 31.1

_SETS = [
    (PIXEL_5, lambda: app_scenarios(), 3),
    (MATE_40_PRO, lambda: os_case_scenarios("mate40-gles"), 4),
    (MATE_60_PRO, lambda: os_case_scenarios("mate60-gles"), 4),
]


def study(runs: int = 2, quick: bool = False) -> Study:
    """The Fig 15 matrix: device × scenario × architecture × repetition."""
    devices = []
    for device, build, buffers in _SETS:
        scenarios = build()
        if quick:
            scenarios = scenarios[::4]
        effective_runs = 1 if quick else runs
        devices.append((device, scenarios, buffers, effective_runs))
    matrix = Study("fig15", analyze=lambda result: _analyze(result, devices))
    for device, scenarios, buffers, effective_runs in devices:
        dvsync_config = DVSyncConfig(buffer_count=max(4, buffers))
        pairs = [
            (scenario, repetition)
            for scenario in scenarios
            for repetition in range(effective_runs)
        ]
        for scenario, repetition in pairs:
            matrix.add(
                scenario_spec(
                    scenario, device, "vsync", run=repetition, buffer_count=buffers
                ),
                device=device.name,
                scenario=scenario.name,
                architecture="vsync",
                rep=repetition,
            )
        for scenario, repetition in pairs:
            matrix.add(
                scenario_spec(
                    scenario,
                    device,
                    "dvsync",
                    run=repetition,
                    dvsync_config=dvsync_config,
                ),
                device=device.name,
                scenario=scenario.name,
                architecture="dvsync",
                rep=repetition,
            )
    return matrix


def _analyze(result: StudyResult, devices) -> ExperimentResult:
    rows = []
    comparisons: list[tuple] = []
    reductions = []
    for device, _scenarios, _buffers, _effective_runs in devices:
        vsync_ms = [
            latency_summary(r).mean_ms
            for r in result.select(device=device.name, architecture="vsync")
            if r is not None
        ]
        dvsync_ms = [
            latency_summary(r).mean_ms
            for r in result.select(device=device.name, architecture="dvsync")
            if r is not None
        ]
        (avg_v, sd_v), (avg_d, sd_d) = mean_sd(vsync_ms), mean_sd(dvsync_ms)
        reduction = pct_reduction(avg_v, avg_d)
        reductions.append(reduction)
        rows.append([device.name, round(avg_v, 1), round(avg_d, 1), round(reduction, 1)])
        paper_v, paper_d = PAPER[device.name]
        comparisons.append(
            (f"{device.name}: VSync latency (ms)", paper_v, round(avg_v, 1), round(sd_v, 1))
        )
        comparisons.append(
            (f"{device.name}: D-VSync latency (ms)", paper_d, round(avg_d, 1), round(sd_d, 1))
        )
    comparisons.append(
        ("avg latency reduction (%)", PAPER_AVG_REDUCTION, round(mean(reductions), 1))
    )
    return ExperimentResult(
        experiment_id="fig15",
        title="Rendering-latency reduction per device",
        headers=["device", "vsync (ms)", "dvsync (ms)", "reduction (%)"],
        rows=rows,
        comparisons=comparisons,
        notes=(
            "Latency anchors follow §6.3: the VSync-app tick under VSync, the "
            "D-Timestamp under D-VSync; D-VSync's floor is the two-period "
            "pipeline with buffer stuffing eliminated."
        ),
    )
