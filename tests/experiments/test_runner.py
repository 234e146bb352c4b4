"""Tests for the shared experiment runner."""

import pytest

from repro import SimConfig, simulate
from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.errors import ConfigurationError
from repro.experiments.runner import compare_scenario
from repro.testing import light_params, make_animation
from repro.workloads.scenarios import Scenario


def test_run_driver_architecture_dispatch():
    """simulate() runs a live driver under the requested architecture."""
    vsync_result = simulate(
        make_animation(light_params(), "run-a"), PIXEL_5,
        architecture="vsync", config=SimConfig(buffer_count=3),
    )
    dvsync_result = simulate(
        make_animation(light_params(), "run-b"), PIXEL_5,
        config=SimConfig(dvsync=DVSyncConfig(buffer_count=4)),
    )
    assert vsync_result.scheduler == "vsync"
    assert dvsync_result.scheduler == "dvsync"


def test_run_driver_unknown_architecture():
    with pytest.raises(ConfigurationError, match="unknown architecture 'gsync'"):
        simulate(make_animation(light_params(), "run-c"), PIXEL_5, architecture="gsync")


def test_compare_scenario_pairs_seeds():
    scenario = Scenario(
        name="runner-pair", description="", refresh_hz=60, target_vsync_fdps=2.0,
        bursts=6,
    )
    comparison = compare_scenario(scenario, PIXEL_5, vsync_buffers=3, runs=2)
    assert comparison.scenario == "runner-pair"
    assert len(comparison.vsync_results) == len(comparison.dvsync_results) == 2
    # Paired seeds: frame i has identical workloads in both arms.
    vsync_frames = comparison.vsync_results[0].frames
    dvsync_frames = comparison.dvsync_results[0].frames
    common = min(len(vsync_frames), len(dvsync_frames))
    assert [f.workload for f in vsync_frames[:common]] == [
        f.workload for f in dvsync_frames[:common]
    ]


def test_comparison_reduction_properties():
    scenario = Scenario(
        name="runner-red", description="", refresh_hz=60, target_vsync_fdps=3.0,
        bursts=8,
    )
    comparison = compare_scenario(scenario, PIXEL_5, vsync_buffers=3, runs=2)
    assert 0 <= comparison.fdps_reduction_percent <= 100
    assert comparison.dvsync_latency_ms < comparison.vsync_latency_ms


def test_zero_baseline_reductions_are_zero():
    from repro.experiments.runner import ScenarioComparison

    comparison = ScenarioComparison(
        scenario="zero", vsync_fdps=0.0, dvsync_fdps=0.0,
        vsync_latency_ms=0.0, dvsync_latency_ms=0.0,
        vsync_results=[], dvsync_results=[],
    )
    assert comparison.fdps_reduction_percent == 0.0
    assert comparison.latency_reduction_percent == 0.0
