"""Experiment harness: one module per paper figure/table (see DESIGN.md §5)."""

from repro.experiments.runner import (
    DEFAULT_RUNS,
    ScenarioComparison,
    add_comparison_arms,
    compare_scenario,
    comparison_from_study,
    scenario_spec,
)

__all__ = [
    "DEFAULT_RUNS",
    "ScenarioComparison",
    "add_comparison_arms",
    "compare_scenario",
    "comparison_from_study",
    "scenario_spec",
]
