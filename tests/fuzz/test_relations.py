"""Unit coverage for the metamorphic-relation catalog."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.errors import ConfigurationError
from repro.exec.spec import DriverSpec, RunSpec
from repro.fuzz.relations import (
    RELATIONS,
    DropsNotWorse,
    EngineParity,
    ObserverNeutrality,
    behavioral_wire,
    relations_by_name,
)


def _spec(**overrides) -> RunSpec:
    base = dict(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name="relations",
            target_fdps=3.0,
            duration_ms=150.0,
        ),
        architecture="vsync",
        device=PIXEL_5,
    )
    base.update(overrides)
    return RunSpec(**base)


def _dvsync_spec(**config_overrides) -> RunSpec:
    config = dict(buffer_count=5, prerender_limit=2)
    config.update(config_overrides)
    return _spec(architecture="dvsync", dvsync=DVSyncConfig(**config))


# ------------------------------------------------------------------ catalog
def test_catalog_names_are_unique_and_described():
    names = [relation.name for relation in RELATIONS]
    assert len(names) == len(set(names))
    assert all(relation.description for relation in RELATIONS)


def test_relations_by_name_default_is_full_catalog():
    assert relations_by_name(None) == RELATIONS
    assert relations_by_name([]) == RELATIONS


def test_relations_by_name_keeps_catalog_order_and_dedups():
    selected = relations_by_name(
        ["content-order", "engine-parity", "content-order"]
    )
    assert [relation.name for relation in selected] == [
        "content-order",
        "engine-parity",
    ]


def test_relations_by_name_rejects_unknown():
    with pytest.raises(ConfigurationError, match="unknown relation"):
        relations_by_name(["no-such-oracle"])


# --------------------------------------------------------------- behavioral
def test_behavioral_wire_strips_observers(execute):
    spec = _spec(telemetry=True, verify=True)
    result = execute(spec)
    assert result.telemetry is not None
    assert "invariants" in result.extra
    wire = behavioral_wire(result)
    assert "telemetry" not in wire
    assert "invariants" not in wire["extra"]
    # The source result is untouched (behavioral_wire copies).
    assert "invariants" in result.extra


# ----------------------------------------------------------------- applies
def test_engine_parity_applies_only_to_eligible_specs():
    relation = EngineParity()
    assert relation.applies(_spec())
    assert not relation.applies(_spec(faults="vsync-jitter(sigma_us=300)"))
    assert relation.applies(_spec(verify=True))  # verified runs replay too
    assert relation.applies(_spec(telemetry=True))  # recorded runs replay too


def _recording(execute, probes):
    """An ``execute`` that records every spec a check runs."""

    def record(spec):
        probes.append(spec)
        return execute(spec)

    return record


def test_observer_neutrality_probe_shape(execute):
    probes = []
    assert ObserverNeutrality().check(_spec(), _recording(execute, probes)) is None
    assert [probe.telemetry for probe in probes] == [False, True, False]
    assert [probe.verify for probe in probes] == [False, False, True]


@pytest.mark.parametrize(
    "spec,expected",
    [
        (_dvsync_spec(), True),
        (_spec(), False),  # baseline architecture: nothing to compare
        (_dvsync_spec(dtv_enabled=False), False),  # ablation forfeits claim
        (_dvsync_spec(ipl_enabled=False), False),
        (_dvsync_spec(enabled=False), False),
        (_dvsync_spec(prerender_limit=1), False),  # no pre-render window
        (_dvsync_spec(buffer_count=3, prerender_limit=2), True),
    ],
    ids=[
        "eligible",
        "vsync",
        "no-dtv",
        "no-ipl",
        "disabled",
        "tiny-window",
        "stock-sized-queue",
    ],
)
def test_drops_not_worse_applies_gating(spec, expected):
    assert DropsNotWorse().applies(spec) is expected


def test_drops_not_worse_rejects_starved_dvsync_queue():
    # Device default is 4 buffers on MATE_60_PRO; a 3-buffer D-VSync queue
    # is starved below the stock baseline and out of the claim's scope.
    spec = _spec(
        architecture="dvsync",
        device=MATE_60_PRO,
        dvsync=DVSyncConfig(buffer_count=3, prerender_limit=2),
    )
    assert not DropsNotWorse().applies(spec)


def test_drops_not_worse_baseline_probe_is_the_vsync_twin(execute):
    spec = _dvsync_spec()
    probes = []
    assert DropsNotWorse().check(spec, _recording(execute, probes)) is None
    assert len(probes) == 2 and probes[0] is spec
    twin = probes[1]
    assert twin.architecture == "vsync"
    assert twin.dvsync is None
    assert twin.driver == spec.driver
    assert twin.device == spec.device


# ------------------------------------------------------------------- checks
def test_checks_pass_on_a_healthy_spec(execute):
    spec = _dvsync_spec()
    for relation in relations_by_name(
        ["seed-determinism", "cache-round-trip", "content-order"]
    ):
        assert relation.applies(spec)
        assert relation.check(spec, execute) is None, relation.name


def test_engine_parity_compares_telemetry_snapshots(execute):
    spec = _spec(telemetry=True)
    relation = EngineParity()
    assert relation.check(spec, execute) is None

    def skewed(probe):
        result = execute(probe)
        if probe.engine == "fastpath":
            result.telemetry.trace.add_instant("janks", "frame-drop", 0)
        return result

    detail = relation.check(spec, skewed)
    assert detail is not None and "telemetry snapshots diverge" in detail


def test_content_order_flags_a_rewind(execute):
    spec = _spec()
    result = execute(spec)
    assert len(result.presents) >= 2
    reordered = dataclasses.replace(result.presents[0], frame_id=10**6)
    result.presents[0] = reordered
    relation = relations_by_name(["content-order"])[0]
    detail = relation.check(spec, lambda probe: result)
    assert detail is not None and "after frame" in detail
