"""Refactor-parity goldens: the study layer changed *how* experiments run,
not *what* they produce.

The JSON files under ``tests/golden/experiments/`` were captured from the
pre-refactor (serial ``compare_scenario`` loop) implementations with
``run(runs=2, quick=True)``; every element is stored ``str()``-ed so float
formatting is compared exactly. The refactored modules must reproduce the
same rows and the same ``(metric, paper, measured)`` comparison triples —
the study layer may *add* a spread column (a 4th tuple element), but the
first three must match byte for byte.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig11_apps_fdps, fig14_games, tab02_stutters

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden" / "experiments"

MODULES = {
    "fig11": fig11_apps_fdps,
    "fig14": fig14_games,
    "tab02": tab02_stutters,
}


def _golden(experiment_id: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{experiment_id}_quick.json").read_text())


@pytest.fixture(scope="module")
def quick_results():
    return {
        key: module.study(runs=2, quick=True).run()
        for key, module in MODULES.items()
    }


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
def test_rows_identical_to_pre_refactor(quick_results, experiment_id):
    golden = _golden(experiment_id)
    result = quick_results[experiment_id]
    assert result.experiment_id == golden["experiment_id"]
    assert result.title == golden["title"]
    assert result.headers == golden["headers"]
    assert [[str(x) for x in row] for row in result.rows] == golden["rows"]


@pytest.mark.parametrize("experiment_id", sorted(MODULES))
def test_comparisons_identical_to_pre_refactor(quick_results, experiment_id):
    golden = _golden(experiment_id)
    result = quick_results[experiment_id]
    triples = [[str(x) for x in comparison[:3]] for comparison in result.comparisons]
    assert triples == golden["comparisons"]


def test_goldens_predate_the_spread_column():
    # The stdev column is new in the study layer; the goldens must not have
    # absorbed it, or the parity check would stop guarding the refactor.
    for experiment_id in MODULES:
        for comparison in _golden(experiment_id)["comparisons"]:
            assert len(comparison) == 3
