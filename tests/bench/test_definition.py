"""BENCHMARK.json: valid names, and every metric it lists is computed."""

from __future__ import annotations

import json
import pathlib

import pytest

from harness.definition import (
    GOVERNOR_METRICS,
    LAYER_METRICS,
    SAMPLE_METRICS,
    load_definition,
    validate_name,
)

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize(
    "name", ["wall_s", "quick-cold", "exec.cache.get_s", "9lives", "a" * 64]
)
def test_valid_names(name):
    assert validate_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "-lead", ".lead", "_lead", "a b", "a/b", "a" * 65, "é", None, 3]
)
def test_invalid_names(name):
    with pytest.raises(ValueError):
        validate_name(name)


def test_duplicate_names_are_rejected(tmp_path):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    definition["per_layer"].append(dict(definition["per_layer"][0]))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(definition))
    with pytest.raises(ValueError, match="used twice"):
        load_definition(tmp_path)


def test_definition_follows_the_benchmark_contract():
    definition = load_definition(ROOT)
    assert set(definition) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    for path in definition["paths"]:
        assert (ROOT / path).is_dir()
    bounds = {metric["name"]: metric["bound"] for metric in definition["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in definition["workloads"]] == [
        "quick-cold", "quick-warm", "sweep-long", "traced",
    ]


@pytest.mark.parametrize("section", ["end_to_end", "per_layer"])
def test_unknown_metric_names_are_rejected_at_load(tmp_path, section):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    definition[section].append({**definition[section][0], "name": "not.computed"})
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(definition))
    with pytest.raises(ValueError, match="not.computed"):
        load_definition(tmp_path)


def test_every_listed_metric_is_computed():
    from harness import layers, workloads
    from repro.exec.executor import Executor

    definition = load_definition(ROOT)
    assert {m["name"] for m in definition["end_to_end"]} == set(SAMPLE_METRICS)
    run = workloads.Run(end=0.0, executor=Executor(jobs=1, cache=False))
    extra = {"eligible_ratio": 0.0, "eligible_ratio_observed": 0.0}
    computed = layers.layer_metrics({}, [], workloads.BatchLog(), run, extra)
    assert tuple(computed) == LAYER_METRICS
    assert {m["name"] for m in definition["per_layer"]} == {
        *LAYER_METRICS, "trace.overhead_s", *GOVERNOR_METRICS,
    }
    assert {name.rsplit(".", 1)[1] for name in GOVERNOR_METRICS} == {"fastpath", "event"}
