"""Tests for the DVFS governor extension."""

import pytest

from repro.errors import ConfigurationError
from repro.extensions.dvfs import FrequencyGovernor, GovernedDriver
from repro.testing import light_params, make_animation, run_dvsync, run_vsync
from repro.units import hz_to_period

PERIOD = hz_to_period(60)


def make_governor(window=1.0, **kwargs):
    return FrequencyGovernor(window_periods=window, period_ns=PERIOD, **kwargs)


def test_parameter_validation():
    with pytest.raises(ConfigurationError):
        make_governor(window=0)
    with pytest.raises(ConfigurationError):
        make_governor(levels=(0.0, 1.0))
    with pytest.raises(ConfigurationError):
        make_governor(margin=0.5)


def test_small_estimate_picks_lowest_level():
    governor = make_governor(window=1.0)
    governor._estimate_ns = PERIOD // 10
    assert governor.choose_level() == 0.5


def test_large_estimate_forces_full_speed():
    governor = make_governor(window=1.0)
    governor._estimate_ns = PERIOD
    assert governor.choose_level() == 1.0


def test_bigger_window_allows_lower_level():
    tight = make_governor(window=1.0)
    roomy = make_governor(window=3.0)
    for governor in (tight, roomy):
        governor._estimate_ns = int(PERIOD * 0.7)
    assert roomy.choose_level() < tight.choose_level()


def test_observe_updates_estimate_and_energy():
    governor = make_governor()
    governor.observe(PERIOD, 0.5)
    assert governor.stats.frames == 1
    assert governor.stats.energy_index == pytest.approx(PERIOD * 0.25)
    assert governor.stats.baseline_energy_index == PERIOD
    assert governor.stats.energy_saving_percent == pytest.approx(75.0)


def test_governed_driver_stretches_workloads():
    inner = make_animation(light_params(), "dvfs-stretch", duration_ms=300)
    governor = make_governor(window=3.0)
    governor._estimate_ns = PERIOD // 10  # low estimate -> level 0.5
    governed = GovernedDriver(inner, governor)
    governed.begin(0)
    raw = inner.make_workload(0, 0)
    stretched = governed.make_workload(0, 0)
    assert stretched.total_ns == pytest.approx(raw.total_ns * 2, rel=0.01)


def test_governed_driver_preserves_protocol():
    inner = make_animation(light_params(), "dvfs-proto", duration_ms=300)
    governed = GovernedDriver(inner, make_governor(window=3.0))
    governed.begin(0)
    assert governed.wants_frame(0, 0) == inner.wants_frame(0, 0)
    assert governed.finished(10**12) == inner.finished(10**12)
    assert governed.true_value(0) == inner.true_value(0)


def test_dvsync_absorbs_governed_stretch_better_than_vsync():
    import dataclasses

    # A loaded-but-sustainable body: stretched to ~half clock its render
    # stage fluctuates around the VSync deadline.
    params = dataclasses.replace(light_params(), base_fraction=0.6, sigma=0.35)

    def governed(name):
        inner = make_animation(params, name, duration_ms=600)
        return GovernedDriver(inner, make_governor(window=3.0, margin=1.0))

    baseline = run_vsync(governed("dvfs-run"))
    improved = run_dvsync(governed("dvfs-run"))
    # Near-deadline stretched frames jank VSync's single-period budget but
    # sit inside D-VSync's pre-render window.
    assert len(baseline.effective_drops) >= 1
    assert len(improved.effective_drops) < len(baseline.effective_drops)


def test_energy_ledger_accumulates_over_run():
    """The caller's own governor reads the run back, also through simulate()
    (the dvfs experiment reads ``governor.stats`` that way)."""
    from repro import SimConfig, simulate
    from repro.display.device import PIXEL_5

    def run_simulate(driver):
        return simulate(driver, PIXEL_5, config=SimConfig(buffer_count=4))

    for run in (run_dvsync, run_simulate):
        inner = make_animation(light_params(), "dvfs-ledger", duration_ms=400)
        governor = make_governor(window=3.0)
        result = run(GovernedDriver(inner, governor))
        assert governor.stats.frames == len(result.frames) > 0
        assert 0 < governor.stats.energy_saving_percent < 100
