"""Tests that the public API surface stays importable and coherent."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.sim",
    "repro.display",
    "repro.graphics",
    "repro.pipeline",
    "repro.vsync",
    "repro.core",
    "repro.workloads",
    "repro.metrics",
    "repro.apps",
    "repro.trace",
    "repro.exec",
    "repro.verify",
    "repro.extensions",
    "repro.experiments",
    "repro.testing",
    "repro.units",
    "repro.errors",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackage_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} must carry a module docstring"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize(
    "module_name",
    ["repro.core", "repro.display", "repro.workloads", "repro.metrics", "repro.trace"],
)
def test_subpackage_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{module_name}.{name}"


def test_version_present():
    assert repro.__version__ == "1.0.0"


def test_public_functions_have_docstrings():
    from repro.core.dvsync import DVSyncScheduler
    from repro.vsync.scheduler import VSyncScheduler

    for cls in (DVSyncScheduler, VSyncScheduler):
        for attr_name in dir(cls):
            if attr_name.startswith("_"):
                continue
            attr = getattr(cls, attr_name)
            if callable(attr):
                assert attr.__doc__, f"{cls.__name__}.{attr_name} lacks a docstring"


def test_experiments_all_is_pinned():
    import repro.experiments

    assert sorted(repro.experiments.__all__) == [
        "DEFAULT_RUNS",
        "ScenarioComparison",
        "add_comparison_arms",
        "compare_scenario",
        "comparison_from_study",
        "scenario_spec",
    ]


def test_trace_all_is_pinned():
    import repro.trace

    assert sorted(repro.trace.__all__) == [
        "CounterSample",
        "Instant",
        "Span",
        "Trace",
        "TraceAnalysis",
        "analyze",
        "decoupling_lead_ms",
        "record_run",
        "render_queue_depth",
        "render_timeline",
        "schema",
    ]


def test_simulate_signature_is_pinned():
    import inspect

    parameters = inspect.signature(repro.simulate).parameters
    assert list(parameters) == [
        "scenario",
        "device",
        "architecture",
        "config",
        "telemetry",
        "verify",
    ]
    assert all(
        parameters[name].kind is inspect.Parameter.KEYWORD_ONLY
        for name in ("architecture", "config", "telemetry", "verify")
    )
