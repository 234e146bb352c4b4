"""Parent side: one fresh child interpreter per repetition.

Every child gets its own empty scratch directory under ``.perfbench-work/``
in the checkout (its ``TMPDIR`` and, unless a warm cache is shared, its
result cache), ``PYTHONPATH`` pointing at ``src/``, a fixed hash seed, and
no ``REPRO_*`` variables, so each repetition starts the way a user's CLI run
does. The
parent waits for each child and for the child's process group to be gone
before starting the next.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from harness.definition import SAMPLE_METRICS, TRACE_OVERHEAD_METRIC
from harness.stats import median, summarize

BENCH_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "bench.py"
WORK_DIR = ".perfbench-work"
CHILD_TIMEOUT_S = 150.0

#: ``setup_s`` readings per workload, and per workload at ``--smoke`` sizes:
#: set-up-only children top up the repetitions to this many, because one
#: set-up reading varies far more than one ``wall_s`` reading.
SETUP_READINGS = 7
SMOKE_SETUP_READINGS = 2


class ChildFailed(RuntimeError):
    """A child exited abnormally or without writing its result."""


def child_env(root: pathlib.Path, work: pathlib.Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(work)
    # A fixed string-hash seed gives every repetition the same set and dict
    # layouts; with random seeds the warm workload's wall time varied about
    # twice as much between fresh processes.
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _launch(command: list[str], root: pathlib.Path, work: pathlib.Path) -> None:
    log_path = work / "child.log"
    with open(log_path, "w") as log:
        process = subprocess.Popen(
            command,
            cwd=root,
            env=child_env(root, work),
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        code = None
        try:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if code is None:
                process.kill()
                process.wait()
            _reap_group(process.pid)
    if code != 0:
        tail = log_path.read_text()[-4000:]
        reason = "timed out" if code is None else f"exited with code {code}"
        raise ChildFailed(f"{' '.join(command[1:])} {reason}:\n{tail}")


def warm_imports(root: pathlib.Path, work_root: pathlib.Path) -> None:
    """Import the program once so bytecode compilation is not timed."""
    work = pathlib.Path(tempfile.mkdtemp(prefix="import-", dir=work_root))
    try:
        _launch([sys.executable, "-c", "import repro.experiments.registry"], root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_child(
    root: pathlib.Path, work_root: pathlib.Path, config: dict, cache_dir: pathlib.Path | None
) -> dict:
    """Run one repetition; returns the child's report plus its start time."""
    work = pathlib.Path(tempfile.mkdtemp(prefix="rep-", dir=work_root))
    try:
        config = {**config, "cache_dir": str(cache_dir or work / "cache")}
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        started = time.time()
        _launch([sys.executable, str(BENCH_SCRIPT), "_child", str(config_path)], root, work)
        try:
            report = json.loads((work / "result.json").read_text())
        except (OSError, ValueError) as exc:
            raise ChildFailed(f"child wrote no readable result: {exc}") from None
        report["started"] = started
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(
    root: pathlib.Path,
    work_root: pathlib.Path,
    workload: str,
    *,
    seed: int,
    reps: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    jobs: int,
) -> dict:
    """Repeat *workload* until *reps* samples and *seconds* have passed.

    ``quick-warm`` first fills a cache with one unmeasured cold run; every
    warm repetition then reads that cache. Set-up-only children then top up
    the ``setup_s`` readings to ``SETUP_READINGS``. With *trace*, one more
    traced repetition follows.
    """
    config = {
        "workload": workload,
        "seed": seed,
        "jobs": jobs,
        "smoke": smoke,
        "trace": False,
        "setup_only": False,
    }
    shared = None
    reports: dict = {"fill": None, "samples": [], "setup_samples": [], "traced": None}
    try:
        if workload == "quick-warm":
            shared = pathlib.Path(tempfile.mkdtemp(prefix="warm-cache-", dir=work_root))
            reports["fill"] = run_child(
                root, work_root, {**config, "workload": "quick-cold"}, shared
            )
        started = time.monotonic()
        while len(reports["samples"]) < reps or time.monotonic() - started < seconds:
            reports["samples"].append(run_child(root, work_root, config, shared))
        setup_config = {**config, "setup_only": True}
        readings = SMOKE_SETUP_READINGS if smoke else SETUP_READINGS
        for _ in range(readings - len(reports["samples"])):
            reports["setup_samples"].append(run_child(root, work_root, setup_config, shared))
        if trace:
            reports["traced"] = run_child(root, work_root, {**config, "trace": True}, shared)
    finally:
        if shared is not None:
            shutil.rmtree(shared, ignore_errors=True)
    return reports


def measure_governor(root: pathlib.Path, work_root: pathlib.Path, smoke: bool) -> dict:
    """The governor rows, from one child: they do not depend on the workload."""
    report = run_child(root, work_root, {"governor": True, "smoke": smoke}, None)
    report.pop("started")
    return report


def evaluate(reports: dict, expected_digest: str | None) -> dict:
    """Summaries, correctness and the layer table of one workload."""
    samples = reports["samples"]
    everything = [r for r in (reports["fill"], *samples, reports["traced"]) if r]
    digests = sorted({r["digest"] for r in everything})
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    problems = []
    if len(digests) != 1:
        problems.append(f"repetitions disagree: digests {digests}")
    elif expected_digest is not None and digests[0] != expected_digest:
        problems.append(f"digest {digests[0]} differs from the recorded {expected_digest}")
    if failed:
        problems.append(f"{failed} of {attempted} specs failed")
    traced = reports["traced"]
    if traced and traced["engine_pass_mismatches"]:
        problems.append(
            f"{traced['engine_pass_mismatches']} in-process replays differ from pool results"
        )
    evaluation = {
        "correct": not problems,
        "problems": problems,
        "digest": digests[0] if len(digests) == 1 else None,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "samples": samples,
        "setup_samples": reports["setup_samples"],
        "summary": {
            name: summarize([sample[name] for sample in samples]) for name in SAMPLE_METRICS
        },
    }
    evaluation["summary"]["setup_s"] = summarize(
        [sample["setup_s"] for sample in samples + reports["setup_samples"]]
    )
    if traced:
        untraced_wall = median([sample["wall_s"] for sample in samples])
        evaluation["layers"] = {
            **traced["layers"],
            TRACE_OVERHEAD_METRIC: traced["wall_s"] - untraced_wall,
        }
        evaluation["spans"] = traced["spans"]
    return evaluation


def git_sha(root: pathlib.Path) -> str | None:
    """The checkout's commit, or ``None`` outside a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None
