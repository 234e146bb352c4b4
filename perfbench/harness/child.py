"""One repetition of one workload, in a fresh interpreter.

Reads a JSON config, runs the workload, and writes a JSON result next to
it. Timing starts before ``repro`` is imported, so ``setup_s`` covers the
imports and the study or spec construction up to the first submission;
``wall_s`` runs from that submission until the last artifact is rendered.
With ``trace`` set, spans wrap the program's layer boundaries and the
engine and eligibility passes add the per-layer table.

Two other kinds of child share this entry point: a *set-up reading*
(``setup_only``) stops at the first submission and reports only
``setup_s``, and the *governor probe* (``governor``) reports the governor
rows of the layer table.
"""

from __future__ import annotations

import json
import pathlib
import platform
import resource
import time


def main(config_path: str) -> int:
    started = time.perf_counter()
    config_file = pathlib.Path(config_path)
    config = json.loads(config_file.read_text())
    work = config_file.parent
    if config.get("governor"):
        from harness import layers

        report = layers.governor_rows(2 if config["smoke"] else layers.GOVERNOR_ROUNDS)
    else:
        report = _repetition(config, work, started)
    (work / "result.json").write_text(json.dumps(report))
    return 0


def _repetition(config: dict, work: pathlib.Path, started: float) -> dict:
    import numpy

    from harness import workloads

    log = workloads.BatchLog(stop_at_submit=config["setup_only"])
    log.install()
    recorder = None
    if config["trace"]:
        from harness.tracing import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()
    try:
        run = workloads.run_workload(config, work)
    except workloads.SetupDone:
        return {"setup_s": log.first_submit - started}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = log.first_submit - started
    wall_s = run.end - log.first_submit
    frames = sum(len(result.frames) for result in log.results if result is not None)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "frames": frames,
        "frames_per_s": frames / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(log.specs),
        "failed": log.failed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if recorder is not None:
        report.update(_layer_pass(recorder, log, run))
    run.executor.close()
    log.uninstall()
    report["digest"] = workloads.output_digest(run, log)
    return report


def _layer_pass(recorder, log, run) -> dict:
    from harness import layers
    from harness.tracing import summarize_spans

    mismatches = 0
    if run.executor.backend == "process" and run.executor.stats.runs_executed:
        mismatches = layers.engine_pass(log)
    recorder.uninstall()
    table = summarize_spans(recorder.spans)
    eligible, observed = layers.eligibility(log.unique_specs())
    extra = {"eligible_ratio": eligible, "eligible_ratio_observed": observed}
    return {
        "engine_pass_mismatches": mismatches,
        "layers": layers.layer_metrics(table, recorder.spans, log, run, extra),
        "spans": {
            name: {key: row[key] for key in ("calls", "busy_s", "self_s")}
            for name, row in sorted(table.items())
        },
    }
