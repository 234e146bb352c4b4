"""Satellite: one boundary test per fastpath ineligibility rule.

For every rule in :func:`repro.fastpath.engine.spec_ineligibility` the
contract is three-sided: the rule names its reason, ``engine="auto"`` falls
back to the event engine (byte-identical results), and ``engine="fastpath"``
refuses with a :class:`ConfigurationError` carrying that same reason. The
verification rows are eligible: the replay writes the log the invariant
checker reads, so both engines return the same verdict.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import PIXEL_5
from repro.errors import ConfigurationError
from repro.exec.executor import execute_spec
from repro.exec.serialize import result_to_wire
from repro.exec.spec import DriverSpec, RunSpec, canonical_json
from repro.fastpath.engine import spec_ineligibility
from repro.fuzz.relations import behavioral_wire


def _spec(**overrides) -> RunSpec:
    base = dict(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name="eligibility",
            target_fdps=3.0,
            duration_ms=200.0,
        ),
        architecture="vsync",
        device=PIXEL_5,
    )
    base.update(overrides)
    return RunSpec(**base)


#: (case id, spec overrides, process switch to flip, reason fragment or
#:  ``None`` for an eligible spec, whether the event fallback itself can run
#:  the spec)
RULES = [
    (
        "faults",
        {"faults": "vsync-jitter(sigma_us=300)"},
        None,
        "fault injection",
        True,
    ),
    (
        "watchdog",
        {
            "architecture": "dvsync",
            "dvsync": DVSyncConfig(buffer_count=4),
            "watchdog": True,
        },
        None,
        "degradation watchdog",
        True,
    ),
    ("spec-verify", {"verify": True}, None, None, True),
    ("process-verify", {}, "verify", None, True),
    (
        "dvsync-disabled",
        {
            "architecture": "dvsync",
            "dvsync": DVSyncConfig(buffer_count=4, enabled=False),
        },
        None,
        "enabled=False",
        True,
    ),
    (
        "negative-start-time",
        {"start_time": -1},
        None,
        "negative start_time",
        False,
    ),
]


@pytest.fixture
def flip_switch():
    """Flip one process-wide switch for the duration of a test."""
    torn_down = []

    def flip(which):
        if which != "verify":
            return
        from repro.verify import runtime

        runtime.set_enabled(True)
        torn_down.append(runtime)

    yield flip
    for runtime in torn_down:
        runtime.reset()


@pytest.mark.parametrize(
    "overrides,switch,fragment,fallback_runs",
    [rule[1:] for rule in RULES],
    ids=[rule[0] for rule in RULES],
)
def test_rule_names_reason_and_gates_both_engines(
    overrides, switch, fragment, fallback_runs, flip_switch
):
    spec = _spec(**overrides)
    flip_switch(switch)

    reason = spec_ineligibility(spec)
    if fragment is None:
        assert reason is None
        fast, event = (
            canonical_json(
                result_to_wire(execute_spec(dataclasses.replace(spec, engine=engine)))
            )
            for engine in ("fastpath", "event")
        )
        assert '"invariants"' in fast
        assert fast == event
        return
    assert reason is not None and fragment in reason

    with pytest.raises(ConfigurationError) as excinfo:
        execute_spec(dataclasses.replace(spec, engine="fastpath"))
    assert "engine='fastpath' cannot replay this spec" in str(excinfo.value)
    assert fragment in str(excinfo.value)

    if fallback_runs:
        # Behavioral wire: telemetry sessions carry wall-clock timings, so
        # the comparison strips observers exactly like the parity oracle.
        auto = canonical_json(
            behavioral_wire(execute_spec(dataclasses.replace(spec, engine="auto")))
        )
        event = canonical_json(
            behavioral_wire(execute_spec(dataclasses.replace(spec, engine="event")))
        )
        assert auto == event


def test_eligible_spec_has_no_reason():
    assert spec_ineligibility(_spec()) is None


def test_non_trace_pure_driver_falls_back():
    """Driver purity is checked past spec_ineligibility: a builder with no
    replay profile still refuses forced fastpath but passes the spec gate."""
    spec = _spec(
        driver=DriverSpec.of(
            "repro.exec.builders:scenario_driver",
            name="no-profile",
            description="interactive gesture (no replay profile)",
            refresh_hz=60,
            target_vsync_fdps=4.0,
            interactive=True,
        )
    )
    assert spec_ineligibility(spec) is None
    with pytest.raises(ConfigurationError, match="not trace-pure"):
        execute_spec(dataclasses.replace(spec, engine="fastpath"))
