"""End-to-end runs of ``perfbench/bench.py`` at ``--smoke`` sizes."""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

from harness.definition import GOVERNOR_METRICS
from harness.runner import SMOKE_SETUP_READINGS

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench" / "bench.py"


def _bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_smoke_run_emits_a_valid_record(tmp_path):
    out = tmp_path / "record.json"
    completed = _bench("--smoke", "--trace", "--out", str(out))
    assert completed.returncode == 0, completed.stderr
    record = json.loads(out.read_text())
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key in ("git_sha", "nproc", "python", "numpy", "seed", "reps", "digests"):
        assert key in record
    assert record["claim"] is None
    assert list(record["workloads"]) == [w["name"] for w in definition["workloads"]]
    assert set(record["governor"]) == set(GOVERNOR_METRICS)
    layer_names = {metric["name"] for metric in definition["per_layer"]} - set(GOVERNOR_METRICS)
    for name, workload in record["workloads"].items():
        assert workload["correct"], (name, workload["problems"])
        assert len(workload["samples"]) == 1
        assert len(workload["setup_samples"]) == SMOKE_SETUP_READINGS - 1
        assert workload["failed"] == 0 and workload["attempted"] >= 1
        for metric in definition["end_to_end"]:
            summary = workload["summary"][metric["name"]]
            assert summary["median"] > 0
            assert summary["n"] == (SMOKE_SETUP_READINGS if metric["name"] == "setup_s" else 1)
        assert set(workload["layers"]) == layer_names
    warm = record["workloads"]["quick-warm"]["layers"]
    assert warm["exec.cache.hits"] > 0 and warm["exec.cache.misses"] == 0
    assert record["digests"]["quick-cold"] == record["digests"]["quick-warm"]
    assert record["workloads"]["traced"]["layers"]["telemetry.trace_events"] > 0


def test_single_workload_prints_one_result_line():
    completed = _bench("--smoke", "--workload", "sweep-long", "--seed", "3", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in definition["end_to_end"]
    }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "sweep-long"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def _record(path, samples, failed=0):
    evaluation = {"samples": samples, "setup_samples": [], "attempted": 100, "failed": failed}
    path.write_text(json.dumps({"workloads": {"sweep-long": evaluation}}))


def _samples(walls, offset):
    return [
        {
            "started": 2 * index + (offset if index % 2 == 0 else 1 - offset),
            "wall_s": wall,
            "frames_per_s": 1000.0 / wall,
            "peak_rss_mb": 100.0,
            "setup_s": 0.2,
        }
        for index, wall in enumerate(walls)
    ]


def test_compare_flags_a_regression(tmp_path):
    parent = [5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.0, 5.1, 4.9, 5.0]
    _record(tmp_path / "parent.json", _samples(parent, 0))
    _record(tmp_path / "slower.json", _samples([w * 1.3 for w in parent], 1))
    _record(tmp_path / "same.json", _samples(parent, 1))
    slower = _bench("compare", str(tmp_path / "parent.json"), str(tmp_path / "slower.json"))
    assert slower.returncode == 1
    assert "regressed" in slower.stdout
    same = _bench("compare", str(tmp_path / "parent.json"), str(tmp_path / "same.json"))
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout
    _record(tmp_path / "failing.json", _samples(parent, 1), failed=1)
    failing = _bench("compare", str(tmp_path / "parent.json"), str(tmp_path / "failing.json"))
    assert failing.returncode == 1
    assert "failed_ratio" in failing.stdout
