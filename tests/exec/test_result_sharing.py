"""Results are canonical when built and read-only once handed out.

The executor hands an in-process run's ``RunResult`` back as it was built,
decodes a wire only when it arrives from a worker or the cache, and gives
every duplicate cell of a batch the same object. Both are sound only if a
fresh result already equals its decoded form, with the same types, and if
no analysis or rendering step mutates a result it reads. This module checks
both properties over the quick matrix and the traced experiments, from one
in-process run shared by all its tests.
"""

import gc
import hashlib
import json
import pickle

import pytest

from repro.exec.executor import Executor
from repro.exec.serialize import result_from_wire, result_to_wire
from repro.experiments import registry
from repro.pipeline.scheduler_base import RunResult
from repro.study import execute_studies
from repro.telemetry import runtime as telemetry_runtime
from repro.verify import runtime as verify_runtime

#: The experiments the ``traced`` benchmark workload runs with telemetry on.
TRACED_EXPERIMENTS = ("fig05", "fig11", "fig14")


def _unique_results(study_results) -> list[RunResult]:
    results = {}
    for study_result in study_results:
        for value in study_result.values.values():
            if isinstance(value, RunResult):
                results.setdefault(id(value), value)
    return list(results.values())


@pytest.fixture(scope="module")
def matrix():
    """Every quick study, then the traced ones with telemetry, in-process.

    Verification is off, as in the benchmark's workloads and a plain
    ``repro --all --quick``.
    """
    order = [key for key in registry.EXPERIMENTS if key != "headline"] + ["headline"]
    executor = Executor(jobs=1, backend="inprocess", cache=False)
    verify_runtime.set_enabled(False)
    try:
        quick, stats = execute_studies(
            [registry.STUDIES[key](quick=True) for key in order], executor=executor
        )
        telemetry_runtime.set_enabled(True)
        traced, traced_stats = execute_studies(
            [registry.STUDIES[key](quick=True) for key in TRACED_EXPERIMENTS],
            executor=executor,
        )
    finally:
        telemetry_runtime.reset()
        verify_runtime.reset()
    # The results are a few million objects that live as long as the module;
    # freezing them spares every later collection a scan over all of them.
    gc.freeze()
    yield {
        "study_results": quick + traced,
        "quick": _unique_results(quick),
        "traced": _unique_results(traced),
        "unique_specs": (stats.unique_specs, traced_stats.unique_specs),
    }
    gc.unfreeze()


def test_identical_cells_share_one_result(matrix):
    assert (len(matrix["quick"]), len(matrix["traced"])) == matrix["unique_specs"]
    assert all(result.telemetry is not None for result in matrix["traced"])


@pytest.mark.parametrize("part", ["quick", "traced"])
def test_fresh_results_equal_their_decoded_form(matrix, part):
    for result in matrix[part]:
        # Through JSON, as a cache entry travels: the strictest of the paths.
        decoded = result_from_wire(json.loads(json.dumps(result_to_wire(result))))
        assert decoded == result, result.scenario
        # repr also tells apart what == forgives (1 and 1.0, an IntEnum and
        # its int, a dict subclass and a dict) in every field of every record.
        assert repr(decoded) == repr(result), result.scenario


def _digest(result: RunResult) -> bytes:
    # Pickle is the quickest exact spelling of a wire, types included.
    return hashlib.sha256(pickle.dumps(result_to_wire(result))).digest()


def test_analysis_and_rendering_leave_results_unchanged(matrix):
    results = matrix["quick"] + matrix["traced"]
    before = [_digest(result) for result in results]
    for study_result in matrix["study_results"]:
        study_result.analyze().render()
    assert [_digest(result) for result in results] == before
