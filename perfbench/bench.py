"""The reproduction's benchmark: four workloads, end-to-end and per layer.

Run every workload and print medians and quartiles over ``--reps``::

    python3 perfbench/bench.py [--seed N] [--reps N] [--trace] [--out PATH]

Run one workload for at least ``--seconds`` and print one JSON result line
(end-to-end metrics, or with ``--trace 1`` the per-layer metrics)::

    python3 perfbench/bench.py --workload quick-cold --seed 3 --seconds 15 --trace 0

Compare two sets of records (files, or directories of record files)::

    python3 perfbench/bench.py compare PARENT CHANGE

Workloads and metrics are defined in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each measures and why it exists.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import sys
import tempfile

from harness.definition import load_definition
from harness.runner import (
    WORK_DIR,
    ChildFailed,
    evaluate,
    git_sha,
    measure,
    measure_governor,
    warm_imports,
)
from harness.stats import judge

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = pathlib.Path(__file__).resolve().parent / "baseline.json"
RECORD_SCHEMA = 1


def _parse_run_args(argv: list[str], workload_names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sweep-long inputs")
    parser.add_argument(
        "--reps", type=int, default=None,
        help="minimum repetitions per workload (default 5; 2 with --seconds; 1 with --smoke)",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep repeating each workload until this much time has passed",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one traced repetition per workload and the governor probe; "
        "report the layer table",
    )
    parser.add_argument("--out", type=pathlib.Path, help="write the run's record here")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, to test the harness")
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 1 if args.smoke else 2 if args.seconds else 5
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    return args


def _expected_digests(seed: int, smoke: bool) -> dict[str, str]:
    """Recorded digests that apply to this run (none for smoke sizes)."""
    if smoke or not BASELINE.exists():
        return {}
    baseline = json.loads(BASELINE.read_text())
    digests = dict(baseline["digests"])
    if seed != baseline["seed"]:
        digests.pop("sweep-long", None)  # the only seeded workload
    return digests


def _print_workload(name: str, evaluation: dict, definition: dict, governor: dict) -> None:
    print(f"== {name}")
    for metric in definition["end_to_end"]:
        row = evaluation["summary"][metric["name"]]
        print(
            f"  {metric['name']:<14} {row['median']:>12.4f} {metric['unit']:<6}"
            f" q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n={row['n']}"
        )
    print(
        f"  {'failed_ratio':<14} {evaluation['failed_ratio']:>12.4f} {'ratio':<6}"
        f" ({evaluation['failed']}/{evaluation['attempted']} specs)"
    )
    verdict = "ok" if evaluation["correct"] else "MISMATCH: " + "; ".join(evaluation["problems"])
    print(f"  digest {evaluation['digest']} {verdict}")
    if "layers" in evaluation:
        layers = {**evaluation["layers"], **governor}
        for metric in definition["per_layer"]:
            value = layers[metric["name"]]
            print(f"  {metric['name']:<42} {value:>14.4f} {metric['unit']}")


def run(argv: list[str]) -> int:
    definition = load_definition(ROOT)
    names = [workload["name"] for workload in definition["workloads"]]
    args = _parse_run_args(argv, names)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    expected = _expected_digests(args.seed, args.smoke)
    jobs = min(2, os.cpu_count() or 1)
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    work_root = pathlib.Path(tempfile.mkdtemp(dir=ROOT / WORK_DIR))
    evaluations = {}
    governor: dict[str, float] = {}
    try:
        warm_imports(ROOT, work_root)
        for name in selected:
            reports = measure(
                ROOT, work_root, name,
                seed=args.seed, reps=args.reps, seconds=args.seconds,
                trace=bool(args.trace), smoke=args.smoke, jobs=jobs,
            )
            evaluations[name] = evaluate(reports, expected.get(name))
        if args.trace:
            governor = measure_governor(ROOT, work_root, args.smoke)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # another invocation may still use it
            (ROOT / WORK_DIR).rmdir()

    if args.out:
        first = next(iter(evaluations.values()))["samples"][0]
        record = {
            "schema": RECORD_SCHEMA,
            "git_sha": git_sha(ROOT),
            "nproc": os.cpu_count(),
            "python": first["python"],
            "numpy": first["numpy"],
            "jobs": jobs,
            "seed": args.seed,
            "reps": args.reps,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "digests": {name: e["digest"] for name, e in evaluations.items()},
            "workloads": evaluations,
            "governor": governor,
            "claim": None,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, evaluation in evaluations.items():
        _print_workload(name, evaluation, definition, governor)
    correct = all(evaluation["correct"] for evaluation in evaluations.values())
    if args.workload:
        evaluation = evaluations[args.workload]
        if args.trace:
            layers = {**evaluation["layers"], **governor}
            metrics = {
                m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                for m in definition["per_layer"]
            }
        else:
            metrics = {
                m["name"]: {"value": evaluation["summary"][m["name"]]["median"], "unit": m["unit"]}
                for m in definition["end_to_end"]
            }
        print(json.dumps({
            "correct": evaluation["correct"],
            "attempted": evaluation["attempted"],
            "failed": evaluation["failed"],
            "metrics": metrics,
        }))
    return 0 if correct else 1


def _load_runs(path: pathlib.Path) -> dict[str, list[dict]]:
    """Per workload, one evaluation per record: a record file or a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for file in files:
        record = json.loads(file.read_text())
        for name, evaluation in record["workloads"].items():
            runs.setdefault(name, []).append(evaluation)
    return runs


def _metric_runs(evaluations: list[dict], key: str) -> list[tuple[float, list[float]]]:
    """``(started, values)`` of one metric per run; set-up readings count for ``setup_s``."""
    runs = []
    for evaluation in evaluations:
        samples = evaluation["samples"]
        if key == "setup_s":
            samples = samples + evaluation["setup_samples"]
        runs.append((min(s["started"] for s in samples), [s[key] for s in samples]))
    return runs


def _failed_ratio(evaluations: list[dict]) -> float:
    return sum(e["failed"] for e in evaluations) / sum(e["attempted"] for e in evaluations)


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.py compare",
        description="Judge a change against its parent from benchmark records.",
    )
    parser.add_argument("parent", type=pathlib.Path, help="record file or directory of records")
    parser.add_argument("change", type=pathlib.Path, help="record file or directory of records")
    args = parser.parse_args(argv)
    definition = load_definition(ROOT)
    parent, change = _load_runs(args.parent), _load_runs(args.change)
    regressed = False
    print(f"{'workload':<11} {'metric':<13} {'status':<13} {'parent':>11} {'change':>11}"
          f" {'worse by':>9} {'bound':>6} {'spread':>7} {'wins':>7} alternating")
    for name in [w["name"] for w in definition["workloads"]]:
        if name not in parent or name not in change:
            continue
        for metric in definition["end_to_end"]:
            key = metric["name"]
            verdict = judge(
                _metric_runs(parent[name], key),
                _metric_runs(change[name], key),
                metric["better"],
                metric["bound"],
            )
            regressed |= verdict.status == "regressed"
            print(
                f"{name:<11} {key:<13} {verdict.status:<13} {verdict.parent_median:>11.4f}"
                f" {verdict.change_median:>11.4f} {verdict.change_worse_by:>9.2%}"
                f" {metric['bound']:>6.0%} {verdict.spread:>7.2%}"
                f" {verdict.wins:>3}/{verdict.pairs:<3} {verdict.alternating}"
            )
        parent_failed, change_failed = _failed_ratio(parent[name]), _failed_ratio(change[name])
        if change_failed > parent_failed:
            regressed = True
            print(
                f"{name:<11} {'failed_ratio':<13} {'regressed':<13}"
                f" {parent_failed:>11.4f} {change_failed:>11.4f}"
            )
    return 1 if regressed else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["_child"]:
        from harness.child import main as child_main

        return child_main(argv[1])
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
