"""Quick-mode smoke tests: every experiment runs and keeps the paper's shape.

These intentionally use ``quick=True`` (subsets, fewer repetitions); the
full-fidelity bands live in tests/integration/test_paper_claims.py.
"""

import pytest

from repro.experiments.registry import run_experiment


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(experiment_id):
        if experiment_id not in cache:
            cache[experiment_id] = run_experiment(experiment_id, quick=True)
        return cache[experiment_id]

    return get


def test_fig01_power_law_shape(results):
    result = results("fig01")
    within_one = result.measured("frames within 1 VSync period (%)")
    beyond_two = result.measured("frames beyond 2 VSync periods (%)")
    assert 70 <= within_one <= 86
    assert 2 <= beyond_two <= 9


def test_fig05_vulkan_worst_average(results):
    result = results("fig05")
    rows = {row[0]: row[1] for row in result.rows}
    assert rows["Mate 60 Pro (OH 120Hz, Vulkan)"] > rows["Pixel 5 (AOSP 60Hz, GLES)"]


def test_fig06_stuffing_dominates(results):
    result = results("fig06")
    assert result.measured("stuffed frames dominate (avg %, paper: 'most frames')") > 50


def test_fig07_ball_lag(results):
    result = results("fig07")
    assert result.measured("VSync max lag (px)") > 150


def test_fig11_dvsync_wins_and_scales_with_buffers(results):
    result = results("fig11")
    vsync = result.measured("avg FDPS, VSync 3 bufs")
    dv4 = result.measured("avg FDPS, D-VSync 4 bufs")
    dv7 = result.measured("avg FDPS, D-VSync 7 bufs")
    assert dv4 < vsync
    assert dv7 <= dv4


def test_fig12_vulkan_reduction(results):
    result = results("fig12")
    assert result.measured("FDPS reduction (%)") > 55


def test_fig13_both_devices_improve(results):
    result = results("fig13")
    assert result.measured("Mate 40 Pro FDPS reduction (%)") > 40
    assert result.measured("Mate 60 Pro FDPS reduction (%)") > 35


def test_fig14_games_improve(results):
    result = results("fig14")
    assert result.measured("FDPS reduction, 4 bufs (%)") > 40
    assert result.measured("FDPS reduction, 5 bufs (%)") >= result.measured(
        "FDPS reduction, 4 bufs (%)"
    )


def test_fig15_latency_reduction_band(results):
    result = results("fig15")
    assert 20 <= result.measured("avg latency reduction (%)") <= 45


def test_fig16_map_case(results):
    result = results("fig16")
    assert result.measured("zoom FDPS reduction (%)") > 85
    assert result.measured("ZDP execution per frame (µs)") == pytest.approx(151.6, abs=1)


def test_tab02_stutters_reduced(results):
    result = results("tab02")
    assert result.measured("avg stutter reduction (%)") > 50


def test_cost_overhead_share(results):
    result = results("cost")
    assert result.measured("FPE+DTV per frame (µs)") == pytest.approx(102.6, abs=1)
    assert result.measured("share of 120 Hz period (%)") < 2.0


def test_power_increase_below_one_percent(results):
    result = results("power")
    assert 0 <= result.measured("end-to-end power increase (%)") < 1.0
    assert result.measured("power increase with ZDP (%)") >= result.measured(
        "end-to-end power increase (%)"
    )


def test_chromium_case(results):
    result = results("chromium")
    assert result.measured("FDPS reduction (%)") > 80


def test_ablations_shapes(results):
    result = results("ablations")
    assert result.measured("no-DTV error vs DTV error (ratio)") > 2
    assert result.measured("curve fitting beats hold-last (error ratio)") < 1
    assert result.measured("co-design mismatches") == 0
    assert result.measured("no-co-design mismatches") > 0


def test_fig09_scope_coverage(results):
    result = results("fig09")
    assert result.measured("frames actually pre-rendered (%)") > 85


def test_fig10_execution_patterns(results):
    result = results("fig10")
    assert result.measured("VSync janks from the long frame") >= 2
    assert result.measured("D-VSync janks from the long frame") == 0


def test_appendix_reference_benchmark(results):
    result = results("appendix")
    assert float(result.measured("suite-wide FDPS reduction (%)")) > 40


def test_fig04_feature_trend(results):
    result = results("fig04")
    assert result.measured("catalog size") == 54


def test_pipeline_flavor_ablation():
    from repro.experiments.ablations import flavor_study

    result = flavor_study(quick=True).run()
    ratio = result.measured("OH/Android baseline FDPS ratio")
    assert 0.5 < ratio < 2.0
    assert result.measured("VSync-rs edge slips observed") > 0


def test_dvfs_extension_case(results):
    result = results("dvfs")
    assert result.measured("extra energy saved by the larger window (pp)") > 0
    assert result.measured("drops stay lower than governed VSync") == "yes"
