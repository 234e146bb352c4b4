"""Figure 14: simulation of 15 mobile games for frame-drop reduction.

Replays synthesized CPU+GPU runtime traces (the paper's own methodology)
through the schedulers at each game's rendering rate. Paper averages:
0.79 → 0.25 (4 buf, −68.4 %) and −87.3 % at 5 buffers. The game × arm ×
repetition grid is one :class:`~repro.study.Study` matrix.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO
from repro.errors import WorkloadError
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult, mean, mean_sd, pct_reduction
from repro.metrics.fdps import fdps
from repro.study import Study, StudyResult
from repro.workloads.drivers import TraceDriver
from repro.workloads.games import GAME_SPECS, record_game_trace

PAPER_VSYNC = 0.79
PAPER_DVSYNC_4 = 0.25
PAPER_REDUCTION_4 = 68.4
PAPER_REDUCTION_5 = 87.3

ARMS = ("vsync", 4, 5)


def build_game_driver(game: str, repetition: int) -> TraceDriver:
    """RunSpec builder: replay one game's synthesized trace for a repetition."""
    for spec in GAME_SPECS:
        if spec.name == game:
            return TraceDriver(record_game_trace(spec, repetition))
    raise WorkloadError(f"unknown game {game!r}")


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Fig 14 matrix: game × arm × repetition, one batch."""
    specs = GAME_SPECS[::3] if quick else GAME_SPECS
    effective_runs = min(runs, 2) if quick else runs
    matrix = Study("fig14", analyze=lambda result: _analyze(result, specs))
    for spec in specs:
        device = MATE_60_PRO.at_refresh(spec.refresh_hz)
        for repetition in range(effective_runs):
            driver = DriverSpec.of(
                "repro.experiments.fig14_games:build_game_driver",
                game=spec.name,
                repetition=repetition,
            )
            matrix.add(
                RunSpec(
                    driver=driver, device=device, architecture="vsync", buffer_count=3
                ),
                game=spec.name,
                rep=repetition,
                arm="vsync",
            )
            for buffers in (4, 5):
                matrix.add(
                    RunSpec(
                        driver=driver,
                        device=device,
                        architecture="dvsync",
                        dvsync=DVSyncConfig(buffer_count=buffers),
                    ),
                    game=spec.name,
                    rep=repetition,
                    arm=buffers,
                )
    return matrix


def _analyze(result: StudyResult, specs) -> ExperimentResult:
    rows = []
    averages: dict[object, list[float]] = {"vsync": [], 4: [], 5: []}
    for spec in specs:
        row = [f"{spec.name}, {spec.refresh_hz}Hz"]
        for key in ARMS:
            value = mean(
                fdps(r)
                for r in result.select(game=spec.name, arm=key)
                if r is not None
            )
            averages[key].append(value)
            row.append(round(value, 2))
        rows.append(row)
    avg = {key: mean(vals) for key, vals in averages.items()}
    sd = {key: mean_sd(vals)[1] for key, vals in averages.items()}
    return ExperimentResult(
        experiment_id="fig14",
        title="Game-trace simulation: FDPS under VSync 3 bufs vs D-VSync 4/5 bufs",
        headers=["game", "vsync 3buf", "dvsync 4buf", "dvsync 5buf"],
        rows=rows,
        comparisons=[
            ("avg FDPS, VSync", PAPER_VSYNC, round(avg["vsync"], 2), round(sd["vsync"], 2)),
            ("avg FDPS, D-VSync 4 bufs", PAPER_DVSYNC_4, round(avg[4], 2), round(sd[4], 2)),
            (
                "FDPS reduction, 4 bufs (%)",
                PAPER_REDUCTION_4,
                round(pct_reduction(avg["vsync"], avg[4]), 1),
            ),
            (
                "FDPS reduction, 5 bufs (%)",
                PAPER_REDUCTION_5,
                round(pct_reduction(avg["vsync"], avg[5]), 1),
            ),
        ],
        notes=(
            "Games use custom engines bypassing the OS framework; this is the "
            "decoupling-aware channel applied to recorded traces, as in §6.1."
        ),
    )
