"""Hypothesis properties for the resource governor's determinism contract.

The governance layer is only sound if a budget is a *pure policy overlay*:
any event budget below a spec's natural event count must fail the run with
kind ``budget`` at exactly the capped event (same trip, every time), and
lifting the budget must restore the byte-identical unbudgeted result — a
budget can end a run early, never change what it computes.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.errors import BudgetExceededError
from repro.exec.executor import Executor, execute_spec
from repro.exec.governor import ResourceBudget, measure_run_events
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec


def _spec(device, architecture, target_fdps, duration_ms):
    kwargs = (
        {"dvsync": DVSyncConfig(buffer_count=4)}
        if architecture == "dvsync"
        else {"buffer_count": 3}
    )
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name=f"prop-governor-{target_fdps:g}-{duration_ms:g}",
            target_fdps=target_fdps,
            duration_ms=duration_ms,
        ),
        device=device,
        architecture=architecture,
        **kwargs,
    )


@settings(max_examples=10, deadline=None)
@given(
    device=st.sampled_from([PIXEL_5, MATE_60_PRO]),
    architecture=st.sampled_from(["vsync", "dvsync"]),
    target_fdps=st.sampled_from([2.0, 4.0, 8.0]),
    duration_ms=st.sampled_from([60.0, 90.0, 150.0]),
    cap_fraction=st.floats(min_value=0.05, max_value=0.95),
)
def test_any_event_budget_below_natural_count_trips_deterministically(
    device, architecture, target_fdps, duration_ms, cap_fraction
):
    spec = _spec(device, architecture, target_fdps, duration_ms)
    baseline = result_to_wire(execute_spec(spec))
    natural = measure_run_events(spec)
    assert natural >= 2, "generated runs must be long enough to budget"
    cap = max(1, min(natural - 1, round(natural * cap_fraction)))
    capped = dataclasses.replace(spec, budget=ResourceBudget(max_events=cap))

    with pytest.raises(BudgetExceededError) as excinfo:
        execute_spec(capped)
    message = str(excinfo.value)
    assert f"max_events={cap} at " in message  # tripped at exactly the cap

    # the same trip settles as a structured, never-retried budget failure
    with Executor(jobs=1, policy="keep-going", retries=0) as executor:
        outcome = executor.map_outcome([capped])
    (failure,) = outcome.failures
    assert failure.kind == "budget"
    assert failure.attempts == 1
    assert failure.message == message  # identical trip on the rerun

    # lifting the budget restores the byte-identical unbudgeted result
    relaxed = dataclasses.replace(capped, budget=None)
    assert result_to_wire(execute_spec(relaxed)) == baseline


@settings(max_examples=8, deadline=None)
@given(
    duration_ms=st.sampled_from([90.0, 150.0]),
    fraction=st.floats(min_value=0.1, max_value=0.9),
)
def test_any_sim_time_budget_inside_the_run_trips_at_its_deadline(
    duration_ms, fraction
):
    spec = _spec(PIXEL_5, "vsync", 4.0, duration_ms)
    max_ns = max(1, int(duration_ms * 1e6 * fraction))
    capped = dataclasses.replace(spec, budget=ResourceBudget(max_sim_ns=max_ns))
    with pytest.raises(BudgetExceededError) as first:
        execute_spec(capped)
    with pytest.raises(BudgetExceededError) as second:
        execute_spec(capped)
    assert f"max_sim_ns={max_ns}" in str(first.value)
    assert str(first.value) == str(second.value)
