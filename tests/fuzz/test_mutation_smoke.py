"""Satellite: the fuzzer must catch a deliberately injected engine bug.

Mutation testing for the test subsystem itself: perturb one fastpath frame
time behind the engines' backs and assert the whole detection pipeline
fires — the engine-parity relation flags the divergence, the campaign
records it, the shrinker minimizes it to a near-default spec, and the
emitted corpus entry replays the violation while the mutant is alive (and
is clean again once it is reverted).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_40_PRO
from repro.exec.executor import Executor
from repro.exec.spec import DriverSpec, RunSpec
from repro.fuzz.campaign import FuzzCampaign
from repro.fuzz.corpus import load_corpus, replay_entry


class FixedGenerator:
    """Generator stub feeding the campaign a hand-picked spec list."""

    def __init__(self, specs):
        self._specs = list(specs)
        self.cells_visited = len(self._specs)

    def take(self, budget):
        return self._specs[:budget]


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
    """Shift the first replayed frame's present time by one nanosecond."""
    from repro.fastpath import replay as replay_module

    pristine = replay_module.replay_spec

    def mutant(*args):
        result = pristine(*args)
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
    executor = Executor(jobs=1, cache=False)
    try:
        report = FuzzCampaign(
            budget=1,
            seed=0,
            relations=["engine-parity"],
            executor=executor,
            corpus_dir=tmp_path,
            generator=FixedGenerator([_eligible_spec()]),
        ).run()
    finally:
        executor.close()

    assert not report.ok
    assert len(report.findings) == 1
    finding = report.findings[0]
    assert finding.relation == "engine-parity"
    assert finding.kind == "violation"
    assert "present_time" in finding.detail or "first difference" in finding.detail

    # The shrinker converged to a near-default spec: the mutant corrupts
    # every eligible replay, so nothing about the original knobs survives.
    assert finding.knob_delta is not None and finding.knob_delta <= 3
    assert finding.shrunk_wire is not None

    # The emitted corpus entry replays the violation while the mutant lives.
    entries = load_corpus(tmp_path)
    assert len(entries) == 1
    _, entry = entries[0]
    assert entry.relation == "engine-parity"
    assert replay_entry(entry, execute) is not None

    # Reverting the mutant makes the same entry replay clean again.
    from repro.fastpath import replay as replay_module

    monkeypatch.setattr(replay_module, "replay_spec", perturbed_fastpath)
    assert replay_entry(entry, execute) is None


def test_unperturbed_campaign_is_clean_on_the_same_spec(execute):
    executor = Executor(jobs=1, cache=False)
    try:
        report = FuzzCampaign(
            budget=1,
            seed=0,
            relations=["engine-parity"],
            executor=executor,
            corpus_dir=None,
            generator=FixedGenerator([_eligible_spec()]),
        ).run()
    finally:
        executor.close()
    assert report.ok, [finding.describe() for finding in report.findings]
