"""§6.4: costs of D-VSync — execution time and memory.

Execution: the FPE + DTV management adds 102.6 µs per frame, 1.2 % of a
120 Hz period, running on little cores. Memory: one extra full-screen buffer
per app on Android (~10 MB), nothing extra on the Mate phones whose render
service already uses 4 buffers; the module's own state stays under 10 KB.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_40_PRO, MATE_60_PRO, PIXEL_5
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult
from repro.metrics.memory import MODULE_STATE_BYTES, extra_memory_mb, queue_footprint
from repro.metrics.power import scheduler_overhead_per_frame_us
from repro.pipeline.frame import FrameCategory
from repro.study import Study, StudyResult
from repro.units import to_ms
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver
from repro.units import ms

PAPER_OVERHEAD_US = 102.6
PAPER_OVERHEAD_SHARE = 1.2  # % of a 120 Hz period
PAPER_PIXEL5_EXTRA_MB = 10.0


def build_costs_driver(bursts: int) -> AnimationDriver:
    """RunSpec builder: the §6.4 mixed-category reference animation."""
    params = params_for_target_fdps(4.0, MATE_60_PRO.refresh_hz)
    return AnimationDriver(
        "costs-mixed",
        params,
        duration_ns=ms(400),
        bursts=bursts,
        burst_period_ns=ms(600),
        category_weights={
            FrameCategory.DETERMINISTIC_ANIMATION: 0.85,
            FrameCategory.PREDICTABLE_INTERACTION: 0.10,
            FrameCategory.REALTIME: 0.05,
        },
    )


def study(runs: int = 1, quick: bool = False) -> Study:
    """The §6.4 matrix: a single D-VSync reference run."""
    matrix = Study("cost", analyze=_analyze)
    matrix.add(
        RunSpec(
            driver=DriverSpec.of(
                "repro.experiments.costs:build_costs_driver",
                bursts=4 if quick else 10,
            ),
            device=MATE_60_PRO,
            architecture="dvsync",
            dvsync=DVSyncConfig(buffer_count=4),
        ),
        architecture="dvsync",
    )
    return matrix


def _analyze(study_result: StudyResult) -> ExperimentResult:
    result = study_result.get(architecture="dvsync")
    decoupled_frames = max(1, result.extra.get("routed_dvsync", len(result.frames)))
    overhead_us = result.scheduler_overhead_ns / decoupled_frames / 1000
    period_share = overhead_us / (to_ms(MATE_60_PRO.vsync_period) * 1000) * 100

    rows = [
        ["FPE+DTV execution per decoupled frame (µs)", round(overhead_us, 1)],
        ["share of a 120 Hz period (%)", round(period_share, 2)],
        ["mean per executed frame (µs)", round(scheduler_overhead_per_frame_us(result), 1)],
    ]
    memory_rows = []
    for device, dvsync_buffers in ((PIXEL_5, 4), (MATE_40_PRO, 4), (MATE_60_PRO, 4)):
        stock = queue_footprint(device, device.default_buffer_count)
        dvsync = queue_footprint(device, dvsync_buffers)
        extra = extra_memory_mb(device, dvsync_buffers)
        memory_rows.append(
            [
                device.name,
                f"{stock.queue_mb:.1f} MB ({stock.buffer_count} bufs)",
                f"{dvsync.queue_mb:.1f} MB ({dvsync.buffer_count} bufs)",
                f"{extra:.2f} MB",
            ]
        )
    pixel5_extra = extra_memory_mb(PIXEL_5, 4)
    return ExperimentResult(
        experiment_id="cost",
        title="Costs of D-VSync: execution time and memory",
        headers=["metric", "value"],
        rows=rows + [["--- memory ---", ""]] + [
            [f"{r[0]}: stock {r[1]}, dvsync {r[2]}, extra {r[3]}", ""] for r in memory_rows
        ],
        comparisons=[
            ("FPE+DTV per frame (µs)", PAPER_OVERHEAD_US, round(overhead_us, 1)),
            ("share of 120 Hz period (%)", PAPER_OVERHEAD_SHARE, round(period_share, 2)),
            ("Pixel 5 extra memory per app (MB)", PAPER_PIXEL5_EXTRA_MB, round(pixel5_extra, 1)),
            (
                "module state (KB, paper: <10)",
                "<10",
                round(MODULE_STATE_BYTES / 1024, 1),
            ),
        ],
    )
