"""Property tests for the execution layer's content-addressing contract.

The executor's cache is only sound if (1) equal specs hash equally and run
to bit-identical results, (2) any semantically distinct knob — seed, fault
clause, device, architecture — perturbs the hash, and (3) a cache hit is
indistinguishable from a fresh simulation. These tests sweep those claims
over a small grid of spec shapes.
"""

import dataclasses
import itertools
import json

from repro.core.config import DVSyncConfig
from repro.display.device import MATE_60_PRO, PIXEL_5
from repro.exec.executor import Executor, execute_spec
from repro.exec.serialize import result_from_wire, result_to_wire
from repro.exec.spec import DriverSpec, RunSpec

FAULT_CLAUSES = (
    None,
    "vsync-jitter(sigma_us=300)",
    "vsync-jitter(sigma_us=300);input-loss(drop_prob=0.05)",
)


def _grid():
    """A spread of distinct spec shapes across both architectures."""
    specs = []
    for device, faults, seed in itertools.product(
        (PIXEL_5, MATE_60_PRO), FAULT_CLAUSES, (0, 1)
    ):
        driver = DriverSpec.of(
            "repro.exec.builders:burst_animation",
            name="prop-exec",
            target_fdps=2.0,
        )
        specs.append(
            RunSpec(
                driver=driver, device=device, architecture="vsync",
                buffer_count=3, faults=faults, fault_seed=seed,
            )
        )
        specs.append(
            RunSpec(
                driver=driver, device=device, architecture="dvsync",
                dvsync=DVSyncConfig(buffer_count=4), faults=faults,
                fault_seed=seed,
            )
        )
    return specs


def test_equal_specs_hash_equally_and_rerun_identically():
    for spec in _grid()[:4]:
        clone = RunSpec.from_wire(json.loads(json.dumps(spec.to_wire())))
        assert clone.content_hash() == spec.content_hash()
        first = result_to_wire(execute_spec(spec))
        second = result_to_wire(execute_spec(clone))
        assert first == second, spec.describe()


def test_distinct_specs_hash_distinctly():
    specs = _grid()
    hashes = [spec.content_hash() for spec in specs]
    assert len(set(hashes)) == len(specs)


def test_seed_and_fault_clause_perturb_the_hash():
    base = _grid()[0]
    reseeded = dataclasses.replace(base, fault_seed=base.fault_seed + 1)
    refaulted = dataclasses.replace(
        base, faults="thermal(factor=2.0,start_ms=0,end_ms=100)"
    )
    assert reseeded.content_hash() != base.content_hash()
    assert refaulted.content_hash() != base.content_hash()


def test_cache_hit_is_bit_identical_to_fresh_run(tmp_path):
    for spec in _grid()[:6]:
        with Executor(jobs=1, cache=True, cache_dir=tmp_path) as executor:
            fresh = executor.run(spec)
        with Executor(jobs=1, cache=True, cache_dir=tmp_path) as warm:
            cached = warm.run(spec)
            assert warm.stats.runs_executed == 0, spec.describe()
        assert result_to_wire(cached) == result_to_wire(fresh), spec.describe()


def test_deserialized_result_survives_double_round_trip():
    spec = _grid()[1]
    result = result_from_wire(result_to_wire(execute_spec(spec)))
    wire = result_to_wire(result)
    text = json.dumps(wire, sort_keys=True)
    assert json.dumps(
        result_to_wire(result_from_wire(result_to_wire(result))), sort_keys=True
    ) == text
