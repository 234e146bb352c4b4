"""Each metamorphic relation as a Hypothesis property over generated specs.

One settings object drives every property: 150 examples each, derandomized
(every run draws the same examples, so a failure reproduces on any host)
and without a database (no state carries over between runs). A relation
sees only specs in its domain (``assume(relation.applies(spec))``); where
the full space rarely hits a domain, the property draws from a narrowed
strategy instead.

When a property fails, Hypothesis shrinks the spec toward the default spec
and re-raises with the shrunk spec's message: the violation detail plus a
ready-to-save corpus entry and its file name. Saved under
``tests/fuzz/corpus/``, it replays on every run from then on.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.display.device import MATE_60_PRO
from repro.exec.executor import execute_spec
from repro.exec.spec import DriverSpec, RunSpec, canonical_json
from repro.fuzz.corpus import CorpusEntry
from repro.fuzz.relations import (
    RELATIONS,
    DropsNotWorse,
    Relation,
    relations_by_name,
)

from tests.fuzz.strategies import run_specs

FUZZ_SETTINGS = settings(
    max_examples=150, derandomize=True, database=None, deadline=None
)


def corpus_entry(relation: Relation, spec: RunSpec, detail: str) -> CorpusEntry:
    """The corpus entry that pins *spec* as a counterexample to *relation*."""
    return CorpusEntry(
        relation=relation.name,
        spec_wire=json.loads(canonical_json(spec.to_wire())),
        detail=detail,
        source="hypothesis",
    )


def assert_holds(relation: Relation, spec: RunSpec) -> None:
    """Fail with a ready-to-save corpus entry if *relation* breaks on *spec*."""
    detail = relation.check(spec, execute_spec)
    if detail is not None:
        entry = corpus_entry(relation, spec, detail)
        raise AssertionError(
            f"{relation.name} violated: {detail}\n"
            f"save as tests/fuzz/corpus/{entry.filename()}:\n{entry.to_json()}"
        )


def check_relation(name: str, spec: RunSpec) -> None:
    """Check relation *name* on *spec* if the spec is in its domain."""
    (relation,) = relations_by_name([name])
    assume(relation.applies(spec))
    assert_holds(relation, spec)


@FUZZ_SETTINGS
@given(run_specs())
def test_engine_parity(spec):
    check_relation("engine-parity", spec)


@FUZZ_SETTINGS
@given(run_specs())
def test_seed_determinism(spec):
    check_relation("seed-determinism", spec)


@FUZZ_SETTINGS
@given(run_specs())
def test_observer_neutral(spec):
    check_relation("observer-neutral", spec)


@FUZZ_SETTINGS
@given(run_specs())
def test_cache_round_trip(spec):
    check_relation("cache-round-trip", spec)


@FUZZ_SETTINGS
@given(run_specs(architectures=("dvsync",), faults=st.none()))
def test_drops_not_worse(spec):
    check_relation("drops-not-worse", spec)


#: A shrunk counterexample to drops-not-worse: a burst calibrated for 60 Hz
#: on the 120 Hz Mate 60 Pro. D-VSync's content timestamps skip VSync slots
#: (0, 8.3, 25.0, 33.3, 50.0, 58.3 ms), so it renders 6 frames where VSync
#: renders 8, and its last frame misses a latch: 1 effective drop against 0.
OFF_PANEL_RATE = RunSpec(
    driver=DriverSpec.of(
        "repro.exec.builders:burst_animation",
        name="fuzz-271",
        target_fdps=0.5,
        refresh_hz=60,
        duration_ms=60.0,
        bursts=1,
        burst_period_ms=None,
    ),
    device=MATE_60_PRO,
    architecture="dvsync",
)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "known defect: on content calibrated for another refresh rate than "
        "the panel's, D-VSync can drop more effective frames than VSync "
        "(CHANGES.md, FOUND)"
    ),
)
def test_drops_not_worse_off_panel_rate():
    assert_holds(DropsNotWorse(), OFF_PANEL_RATE)


@FUZZ_SETTINGS
@given(run_specs())
def test_content_order(spec):
    check_relation("content-order", spec)


@FUZZ_SETTINGS
@given(run_specs())
def test_budget_parity(spec):
    check_relation("budget-parity", spec)


def test_every_relation_runs_as_a_property():
    properties = {
        name[len("test_"):].replace("_", "-")
        for name, value in globals().items()
        if name.startswith("test_") and hasattr(value, "hypothesis")
    }
    assert properties == {relation.name for relation in RELATIONS}
