"""Ablations of D-VSync's design choices (DESIGN.md §5).

Four studies isolate why each component exists:

- **DTV off** — pre-render with wall-clock content timestamps: animations
  visibly mis-pace (the "chaotic content despite higher frame rates" of §7).
- **IPL predictor choice** — hold-last-value vs linear vs quadratic curve
  fitting for interactive frames.
- **Pre-render limit sweep** — the aware-channel knob balancing drops vs
  memory (§4.5 capability 2).
- **LTPO co-design off** — rate switches while old-rate frames sit queued,
  producing the rate-mismatched presents §5.3's drain rule prevents.
- **Pipeline flavor** — Android's completion-chained render thread vs
  OpenHarmony's VSync-rs-triggered render service (§2): same baseline
  behaviour on light loads, with the OH flavor exhibiting edge-alignment
  slips when UI logic crosses the VSync-rs offset.

The five parts form one :class:`~repro.study.CompositeStudy`: the DTV and
limit-sweep matrices describe their runs as RunSpecs (batched through the
executor, parallel + cached), while the IPL/LTPO/flavor parts attach live
objects to the scheduler (predictors, the co-design bridge) and run as live
cells by design.
"""

from __future__ import annotations

from repro.core.config import DVSyncConfig
from repro.core.dvsync import DVSyncScheduler
from repro.core.ipl import (
    AlphaBetaPredictor,
    LastValuePredictor,
    LinearPredictor,
    QuadraticPredictor,
)
from repro.core.ltpo_codesign import LTPOCoDesign
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.display.ltpo import LTPOController
from repro.exec.spec import DriverSpec, RunSpec
from repro.experiments.base import ExperimentResult, mean
from repro.metrics.fdps import fdps
from repro.study import CompositeStudy, Study, StudyResult
from repro.units import ms
from repro.workloads.distributions import params_for_target_fdps
from repro.workloads.drivers import AnimationDriver, InteractionDriver
from repro.workloads.touch import SwipeGesture

DTV_ARMS = (
    ("vsync", {"architecture": "vsync", "buffer_count": 3}),
    ("dvsync+dtv", {"architecture": "dvsync", "dvsync": DVSyncConfig(buffer_count=4)}),
    (
        "dvsync-no-dtv",
        {
            "architecture": "dvsync",
            "dvsync": DVSyncConfig(buffer_count=4, dtv_enabled=False),
        },
    ),
)


def build_ablation_animation(name: str, run_index: int, bursts: int) -> AnimationDriver:
    """RunSpec builder: the droppy animation shared by the ablation sweeps."""
    params = params_for_target_fdps(3.0, PIXEL_5.refresh_hz)
    return AnimationDriver(
        f"{name}#{run_index}",
        params,
        duration_ns=ms(400),
        bursts=bursts,
        burst_period_ns=ms(600),
    )


def _animation_spec(name: str, run_index: int, bursts: int, **kwargs) -> RunSpec:
    return RunSpec(
        driver=DriverSpec.of(
            "repro.experiments.ablations:build_ablation_animation",
            name=name,
            run_index=run_index,
            bursts=bursts,
        ),
        device=PIXEL_5,
        **kwargs,
    )


def _pacing_error(result, driver, period_ns: int, depth: int = 2) -> float:
    """Mean |drawn - ideal| of displayed animation content, in panel heights.

    The ideal content of a frame shown at ``present`` represents
    ``present - depth * period`` (the architecture's content-time
    convention); any deviation is visible pacing error.
    """
    errors = []
    for frame in result.presented_frames:
        if frame.content_value is None or frame.present_time is None:
            continue
        ideal = driver.true_value(frame.present_time - depth * period_ns)
        errors.append(abs(frame.content_value - ideal))
    return mean(errors)


# --------------------------------------------------------------------- DTV
def dtv_study(runs: int = 3, quick: bool = False) -> Study:
    """Pre-rendering with and without the Display Time Virtualizer."""
    effective_runs = 2 if quick else runs
    matrix = Study(
        "ablation-dtv", analyze=lambda result: _analyze_dtv(result, effective_runs)
    )
    for repetition in range(effective_runs):
        for label, kwargs in DTV_ARMS:
            matrix.add(
                _animation_spec("abl-dtv", repetition, 8, **kwargs),
                arm=label,
                rep=repetition,
            )
    return matrix


def _analyze_dtv(result: StudyResult, effective_runs: int) -> ExperimentResult:
    period = PIXEL_5.vsync_period
    errors = {label: [] for label, _kwargs in DTV_ARMS}
    for repetition in range(effective_runs):
        # The pacing check compares drawn content against the motion curve;
        # rebuild the (deterministic) driver the specs described.
        driver = build_ablation_animation("abl-dtv", repetition, 8)
        for label, _kwargs in DTV_ARMS:
            run_result = result.get(arm=label, rep=repetition)
            if run_result is None:
                continue
            errors[label].append(_pacing_error(run_result, driver, period))
    rows = [[arm, round(mean(vals), 4)] for arm, vals in errors.items()]
    return ExperimentResult(
        experiment_id="ablation-dtv",
        title="Animation pacing error with and without DTV (panel heights)",
        headers=["arm", "mean pacing error"],
        rows=rows,
        comparisons=[
            (
                "no-DTV error vs DTV error (ratio)",
                ">> 1 (content breaks)",
                round(
                    mean(errors["dvsync-no-dtv"]) / max(1e-9, mean(errors["dvsync+dtv"])), 1
                ),
            ),
        ],
    )


# --------------------------------------------------------------------- IPL
def ipl_study(runs: int = 3, quick: bool = False) -> Study:
    """Interactive content error under different IPL predictors.

    The predictors are live objects registered with the scheduler (and some
    keep state across repetitions), so every cell is a live thunk executed
    in insertion order — label-major, repetition-minor, exactly the loop the
    serial implementation ran.
    """
    effective_runs = 2 if quick else runs
    predictors = {
        "hold-last-value": LastValuePredictor(),
        "linear": LinearPredictor(),
        "quadratic": QuadraticPredictor(),
        "alpha-beta": AlphaBetaPredictor(),
    }
    matrix = Study(
        "ablation-ipl",
        analyze=lambda result: _analyze_ipl(result, list(predictors)),
    )
    params = params_for_target_fdps(2.0, PIXEL_5.refresh_hz)

    def one_rep(predictor, repetition: int) -> float:
        name = f"abl-ipl#{repetition}"

        def factory(start: int, _n=name):
            return SwipeGesture(start, ms(800), name=_n)

        driver = InteractionDriver(name, params, factory)
        scheduler = DVSyncScheduler(driver, PIXEL_5, DVSyncConfig(buffer_count=4))
        scheduler.api.register_input_predictor(predictor)
        result = scheduler.run()
        frame_errors = [
            abs(driver.true_value(f.present_time) - f.content_value)
            for f in result.presented_frames
            if f.content_value is not None
        ]
        return mean(frame_errors)

    for label, predictor in predictors.items():
        for repetition in range(effective_runs):
            matrix.add_live(
                lambda predictor=predictor, repetition=repetition: (
                    one_rep(predictor, repetition)
                ),
                predictor=label,
                rep=repetition,
            )
    return matrix


def _analyze_ipl(result: StudyResult, labels: list[str]) -> ExperimentResult:
    rows = []
    results = {}
    for label in labels:
        errors = [
            value for value in result.select(predictor=label) if value is not None
        ]
        results[label] = mean(errors)
        rows.append([label, round(results[label], 4)])
    return ExperimentResult(
        experiment_id="ablation-ipl",
        title="Interactive content error at display time per IPL predictor",
        headers=["predictor", "mean error (panel heights)"],
        rows=rows,
        comparisons=[
            (
                "curve fitting beats hold-last (error ratio)",
                "< 1",
                round(results["linear"] / max(1e-9, results["hold-last-value"]), 2),
            ),
        ],
    )


# ------------------------------------------------------------- limit sweep
def limit_study(runs: int = 3, quick: bool = False) -> Study:
    """FDPS as a function of the pre-rendering limit (7-buffer queue)."""
    effective_runs = 2 if quick else runs
    limits = (1, 2, 3, 4, 6) if quick else (1, 2, 3, 4, 5, 6)
    matrix = Study(
        "ablation-limit", analyze=lambda result: _analyze_limit(result, limits)
    )
    for limit in limits:
        for repetition in range(effective_runs):
            matrix.add(
                _animation_spec(
                    "abl-limit",
                    repetition,
                    12,
                    architecture="dvsync",
                    dvsync=DVSyncConfig(buffer_count=7, prerender_limit=limit),
                ),
                limit=limit,
                rep=repetition,
            )
    return matrix


def _analyze_limit(result: StudyResult, limits) -> ExperimentResult:
    rows = []
    values_by_limit = {}
    for limit in limits:
        values = [fdps(r) for r in result.select(limit=limit) if r is not None]
        values_by_limit[limit] = mean(values)
        rows.append([limit, round(values_by_limit[limit], 2)])
    return ExperimentResult(
        experiment_id="ablation-limit",
        title="FDPS vs pre-rendering limit (7-buffer queue, Pixel 5)",
        headers=["prerender limit", "FDPS"],
        rows=rows,
        comparisons=[
            (
                "FDPS monotonically drops with the limit",
                "yes",
                "yes"
                if values_by_limit[limits[-1]] <= values_by_limit[limits[0]]
                else "no",
            ),
        ],
    )


# -------------------------------------------------------------------- LTPO
def ltpo_study(runs: int = 3, quick: bool = False) -> Study:
    """Rate-mismatched presents with and without the drain rule (§5.3)."""
    effective_runs = 2 if quick else runs
    matrix = Study("ablation-ltpo", analyze=_analyze_ltpo)

    def one_rep(enforce: bool, repetition: int) -> int:
        params = params_for_target_fdps(2.0, MATE_60_PRO.refresh_hz)
        driver = AnimationDriver(
            f"abl-ltpo#{repetition}",
            params,
            duration_ns=ms(1500),
            curve=None,  # default ease-in-out: speed sweeps tiers
            bursts=4 if quick else 8,
            burst_period_ns=ms(1700),
        )
        scheduler = DVSyncScheduler(
            driver, MATE_60_PRO, DVSyncConfig(buffer_count=4)
        )
        ltpo = LTPOController(scheduler.hw_vsync, max_hz=MATE_60_PRO.refresh_hz)
        bridge = LTPOCoDesign(scheduler, ltpo, enforce_drain=enforce)
        scheduler.run()
        return bridge.rate_mismatched_presents

    for enforce, label in ((True, "co-design"), (False, "no-co-design")):
        for repetition in range(effective_runs):
            matrix.add_live(
                lambda enforce=enforce, repetition=repetition: (
                    one_rep(enforce, repetition)
                ),
                arm=label,
                rep=repetition,
            )
    return matrix


def _analyze_ltpo(result: StudyResult) -> ExperimentResult:
    mismatches = {
        label: [v for v in result.select(arm=label) if v is not None]
        for label in ("co-design", "no-co-design")
    }
    rows = [[label, round(mean(vals), 1)] for label, vals in mismatches.items()]
    return ExperimentResult(
        experiment_id="ablation-ltpo",
        title="Rate-mismatched presents with/without the LTPO drain rule",
        headers=["arm", "mismatched presents"],
        rows=rows,
        comparisons=[
            ("co-design mismatches", 0, round(mean(mismatches["co-design"]), 1)),
            (
                "no-co-design mismatches",
                "> 0",
                round(mean(mismatches["no-co-design"]), 1),
            ),
        ],
    )


# ------------------------------------------------------------------ flavor
def flavor_study(runs: int = 3, quick: bool = False) -> Study:
    """Android-chained vs OpenHarmony VSync-rs render triggering (§2)."""
    from repro.metrics.latency import latency_summary
    from repro.vsync.oh_scheduler import OpenHarmonyVSyncScheduler
    from repro.vsync.scheduler import VSyncScheduler

    effective_runs = 2 if quick else runs
    matrix = Study("ablation-flavor", analyze=_analyze_flavor)

    def one_rep(flavor: str, repetition: int):
        params = params_for_target_fdps(4.0, MATE_60_PRO.refresh_hz)
        driver = AnimationDriver(
            f"abl-flavor#{repetition}",
            params,
            duration_ns=ms(400),
            bursts=8 if quick else 14,
            burst_period_ns=ms(600),
        )
        # Sprinkle UI-heavy frames (layout storms) that cross the
        # VSync-rs offset — the records that slip an edge under OH.
        import dataclasses as _dc

        for index in range(6, len(driver._workloads), 24):
            workload = driver._workloads[index]
            driver._workloads[index] = _dc.replace(
                workload, ui_ns=round(MATE_60_PRO.vsync_period * 0.6)
            )
        if flavor == "android":
            scheduler = VSyncScheduler(driver, MATE_60_PRO, buffer_count=4)
        else:
            scheduler = OpenHarmonyVSyncScheduler(driver, MATE_60_PRO)
        result = scheduler.run()
        slips = scheduler.rs_slips if flavor == "openharmony" else None
        return fdps(result), latency_summary(result).mean_ms, slips

    for repetition in range(effective_runs):
        for flavor in ("android", "openharmony"):
            matrix.add_live(
                lambda flavor=flavor, repetition=repetition: (
                    one_rep(flavor, repetition)
                ),
                flavor=flavor,
                rep=repetition,
            )
    return matrix


def _analyze_flavor(result: StudyResult) -> ExperimentResult:
    stats = {"android": {"fdps": [], "latency": []}, "openharmony": {"fdps": [], "latency": []}}
    slips = []
    for flavor in ("android", "openharmony"):
        for payload in result.select(flavor=flavor):
            if payload is None:
                continue
            fdps_value, latency_value, slip_count = payload
            stats[flavor]["fdps"].append(fdps_value)
            stats[flavor]["latency"].append(latency_value)
            if slip_count is not None:
                slips.append(slip_count)
    rows = [
        [flavor, round(mean(values["fdps"]), 2), round(mean(values["latency"]), 1)]
        for flavor, values in stats.items()
    ]
    ratio = mean(stats["openharmony"]["fdps"]) / max(1e-9, mean(stats["android"]["fdps"]))
    return ExperimentResult(
        experiment_id="ablation-flavor",
        title="Baseline pipeline flavor: chained render thread vs VSync-rs service",
        headers=["flavor", "FDPS", "mean latency (ms)"],
        rows=rows,
        comparisons=[
            ("OH/Android baseline FDPS ratio", "~1 (same architecture class)", round(ratio, 2)),
            ("VSync-rs edge slips observed", "> 0", round(mean(slips), 1)),
        ],
    )


# --------------------------------------------------------------- composite
def _merge(parts: list[ExperimentResult]) -> ExperimentResult:
    rows = []
    comparisons = []
    for part in parts:
        rows.append([f"--- {part.title} ---", ""])
        rows.extend([[str(r[0]), str(r[1])] for r in part.rows])
        comparisons.extend(part.comparisons)
    return ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations",
        headers=["item", "value"],
        rows=rows,
        comparisons=comparisons,
    )


def study(runs: int = 3, quick: bool = False) -> CompositeStudy:
    """All five ablations as one composite matrix (one executor batch)."""
    return CompositeStudy(
        "ablations",
        parts=[
            dtv_study(runs, quick),
            ipl_study(runs, quick),
            limit_study(runs, quick),
            ltpo_study(runs, quick),
            flavor_study(runs, quick),
        ],
        combine=_merge,
    )
