"""Satellite: the properties must catch a deliberately injected engine bug.

Mutation testing for the test subsystem itself: perturb one D-VSync
fastpath frame time behind the engines' backs and assert the whole pipeline
fires under the properties' own settings — Hypothesis finds an
``engine-parity`` violation, shrinks it to within a few knobs of the
strategy's minimal example, and the corpus entry its failure message
carries replays the violation while the mutant is alive (and is clean
again once it is reverted).
"""

from __future__ import annotations

import pytest
from hypothesis import find

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_40_PRO
from repro.exec.spec import DriverSpec, RunSpec
from repro.fuzz.corpus import load_corpus, replay_entry, save_entry
from repro.fuzz.relations import EngineParity

from tests.fuzz.strategies import run_specs
from tests.fuzz.test_properties import FUZZ_SETTINGS, corpus_entry


def knobs_apart(spec: RunSpec, other: RunSpec) -> int:
    """How many spec fields and driver params differ between two specs."""
    left, right = spec.to_wire(), other.to_wire()
    fields = sum(left[key] != right[key] for key in left if key != "driver")
    fields += spec.driver.builder != other.driver.builder
    mine, theirs = spec.driver.params, other.driver.params
    return fields + sum(mine.get(key) != theirs.get(key) for key in {*mine, *theirs})


def _eligible_spec() -> RunSpec:
    return RunSpec(
        driver=DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name="mutation-smoke",
            target_fdps=6.0,
            refresh_hz=90,
        ),
        architecture="dvsync",
        device=MATE_40_PRO,
        dvsync=DVSyncConfig(buffer_count=5, prerender_limit=2),
        horizon=300_000_000,
        fault_seed=3,
    )


@pytest.fixture
def perturbed_fastpath(monkeypatch):
    """Shift the first replayed D-VSync frame's present time by 1 ns.

    Only D-VSync replays are perturbed, so the strategy's minimal example
    (a VSync spec) is clean and Hypothesis has to search and shrink.
    """
    from repro.fastpath import replay as replay_module

    pristine = replay_module.replay_spec

    def mutant(spec, *args):
        result = pristine(spec, *args)
        if spec.architecture == "dvsync":
            for frame in result.frames:
                if frame.present_time is not None:
                    frame.present_time += 1
                    break
        return result

    monkeypatch.setattr(replay_module, "replay_spec", mutant)
    return pristine


def test_mutation_is_detected_shrunk_and_replayable(
    perturbed_fastpath, execute, tmp_path, monkeypatch
):
    relation = EngineParity()

    def violated(spec: RunSpec) -> bool:
        return relation.applies(spec) and relation.check(spec, execute) is not None

    found = find(run_specs(), violated, settings=FUZZ_SETTINGS)
    detail = relation.check(found, execute)
    assert "first difference" in detail

    # Shrunk to a near-default spec: the mutant corrupts every eligible
    # D-VSync replay, so little beyond the architecture survives.
    minimal = find(run_specs(), lambda spec: True, settings=FUZZ_SETTINGS)
    assert found.architecture == "dvsync" and minimal.architecture == "vsync"
    assert 1 <= knobs_apart(found, minimal) <= 3

    # The failure message's corpus entry replays the violation while the
    # mutant lives.
    save_entry(corpus_entry(relation, found, detail), tmp_path)
    entries = load_corpus(tmp_path)
    assert len(entries) == 1
    path, entry = entries[0]
    assert path.name == entry.filename()
    assert entry.relation == "engine-parity"
    assert replay_entry(entry, execute) is not None

    # Reverting the mutant makes the same entry replay clean again.
    from repro.fastpath import replay as replay_module

    monkeypatch.setattr(replay_module, "replay_spec", perturbed_fastpath)
    assert replay_entry(entry, execute) is None


def test_unperturbed_campaign_is_clean_on_the_same_spec(execute):
    """Without the mutant, engine parity holds on a hand-picked spec."""
    assert EngineParity().check(_eligible_spec(), execute) is None
