"""Figure 16 / §6.5: the decoupling-aware map app case study.

Zooming with the ZDP registered through the IPL extension: 100 % of zoom
frame drops eliminated, latency reduced 30.2 %, at 151.6 µs/frame of ZDP
execution — all through the aware-channel APIs.

The app registers live predictor objects with the scheduler, so the cells
run as in-process live thunks (each returning one repetition's report)
rather than picklable RunSpecs; the study layer still keys, batches, and
aggregates them uniformly with the spec-backed matrices.
"""

from __future__ import annotations

from repro.apps.map_app import MapApp, expected_zdp_overhead_us
from repro.experiments.base import ExperimentResult, mean, pct_reduction
from repro.study import Study, StudyResult

PAPER_FDPS_REDUCTION = 100.0
PAPER_LATENCY_REDUCTION = 30.2
PAPER_ZDP_OVERHEAD_US = 151.6


def study(runs: int = 3, quick: bool = False) -> Study:
    """The Fig 16 matrix: architecture × repetition as live cells."""
    app = MapApp()
    effective_runs = 2 if quick else runs
    matrix = Study(
        "fig16", analyze=lambda result: _analyze(result, effective_runs)
    )

    def vsync_report(repetition: int):
        return app.report(*app.run_vsync(repetition))

    def dvsync_report(repetition: int):
        return app.report(*app.run_dvsync(repetition))

    for repetition in range(effective_runs):
        matrix.add_live(
            lambda repetition=repetition: vsync_report(repetition),
            architecture="vsync",
            rep=repetition,
        )
        matrix.add_live(
            lambda repetition=repetition: dvsync_report(repetition),
            architecture="dvsync",
            rep=repetition,
        )
    return matrix


def _analyze(result: StudyResult, effective_runs: int) -> ExperimentResult:
    vsync_fdps, dvsync_fdps = [], []
    vsync_latency, dvsync_latency = [], []
    zdp_overhead, prediction_error = [], []
    for repetition in range(effective_runs):
        report = result.get(architecture="vsync", rep=repetition)
        if report is not None:
            vsync_fdps.append(report.fdps)
            vsync_latency.append(report.mean_latency_ms)
        report = result.get(architecture="dvsync", rep=repetition)
        if report is not None:
            dvsync_fdps.append(report.fdps)
            dvsync_latency.append(report.mean_latency_ms)
            zdp_overhead.append(report.zdp_overhead_us_per_frame)
            prediction_error.append(report.prediction_error_mean)
    fdps_red = pct_reduction(mean(vsync_fdps), mean(dvsync_fdps))
    lat_red = pct_reduction(mean(vsync_latency), mean(dvsync_latency))
    rows = [
        ["FDPS", round(mean(vsync_fdps), 2), round(mean(dvsync_fdps), 2)],
        ["mean latency (ms)", round(mean(vsync_latency), 1), round(mean(dvsync_latency), 1)],
        ["ZDP overhead (µs/frame)", "-", round(mean(zdp_overhead), 1)],
        ["mean pinch prediction error", "-", round(mean(prediction_error), 4)],
    ]
    return ExperimentResult(
        experiment_id="fig16",
        title="Map app zooming: VSync 3 bufs vs decoupling-aware D-VSync 5 bufs",
        headers=["metric", "vsync", "dvsync+zdp"],
        rows=rows,
        comparisons=[
            ("zoom FDPS reduction (%)", PAPER_FDPS_REDUCTION, round(fdps_red, 1)),
            ("latency reduction (%)", PAPER_LATENCY_REDUCTION, round(lat_red, 1)),
            (
                "ZDP execution per frame (µs)",
                PAPER_ZDP_OVERHEAD_US,
                round(mean(zdp_overhead), 1),
            ),
            ("paper's modelled ZDP cost (µs)", PAPER_ZDP_OVERHEAD_US, expected_zdp_overhead_us()),
        ],
    )
