"""The benchmark's definition: ``BENCHMARK.json`` at the repository root.

The file names the workloads, the end-to-end metrics with their units,
directions and regression bounds, and the per-layer metrics. The harness
reads every name from it and checks each metric name against the metrics it
computes (listed here), so the file and the harness cannot drift apart
silently: an unknown name fails before any run starts.
"""

from __future__ import annotations

import json
import pathlib
import re

#: A name starts with a letter or digit and has at most 64 characters.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

DEFINITION_FILE = "BENCHMARK.json"

#: End-to-end metrics every repetition reports.
SAMPLE_METRICS = ("wall_s", "frames_per_s", "setup_s", "peak_rss_mb")

#: Per-layer metrics of a traced repetition (``layers.layer_metrics``).
LAYER_METRICS = (
    "fastpath.replay_s",
    "fastpath.replays",
    "fastpath.spec_ms.p50",
    "fastpath.spec_ms.p95",
    "fastpath.profile.compile_s",
    "fastpath.profile.compiles",
    "fastpath.eligible_ratio",
    "fastpath.eligible_ratio_observed",
    "sim.event_run_s",
    "sim.event_runs",
    "sim.spec_ms.p50",
    "sim.spec_ms.max",
    "workloads.driver_build_s",
    "exec.serialize.to_wire_s",
    "exec.serialize.from_wire_s",
    "exec.serialize.to_wire_calls",
    "exec.serialize.from_wire_calls",
    "exec.serialize.calls_per_unique_spec",
    "exec.cache.get_s",
    "exec.cache.hits",
    "exec.cache.put_s",
    "exec.cache.misses",
    "exec.cache.bytes",
    "exec.executor.map_outcome_s",
    "exec.executor.self_s",
    "exec.executor.worker_run_s",
    "exec.executor.worker_utilization",
    "exec.executor.deduplicated",
    "exec.executor.admission_deferred",
    "exec.executor.retries",
    "study.self_s",
    "study.cells",
    "study.unique_specs",
    "study.dedup_hits",
    "study.live_cells_s",
    "experiments.analyze_s",
    "experiments.render_s",
    "telemetry.export_s",
    "telemetry.trace_events",
)

#: Traced ``wall_s`` minus the untraced median, computed by the parent.
TRACE_OVERHEAD_METRIC = "trace.overhead_s"

#: Rows of the governor probe, measured once per invocation for all workloads.
GOVERNOR_METRICS = (
    "exec.governor.armed_overhead_pct.fastpath",
    "exec.governor.armed_overhead_pct.event",
)


def validate_name(name: object) -> str:
    """Return *name* if it is a valid workload or metric name, else raise."""
    if not isinstance(name, str) or NAME_PATTERN.fullmatch(name) is None:
        raise ValueError(
            f"invalid name {name!r}: use 1-64 of [A-Za-z0-9_.-], "
            f"starting with a letter or digit"
        )
    return name


def load_definition(root: pathlib.Path) -> dict:
    """Read and validate ``BENCHMARK.json`` under *root*."""
    definition = json.loads((root / DEFINITION_FILE).read_text())
    seen: set[str] = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in definition[section]:
            name = validate_name(entry["name"])
            if name in seen:
                raise ValueError(f"name {name!r} is used twice in {DEFINITION_FILE}")
            seen.add(name)
    known = {
        "end_to_end": set(SAMPLE_METRICS),
        "per_layer": {*LAYER_METRICS, TRACE_OVERHEAD_METRIC, *GOVERNOR_METRICS},
    }
    for section, computed in known.items():
        for entry in definition[section]:
            if entry["name"] not in computed:
                raise ValueError(
                    f"{DEFINITION_FILE} lists {section} metric {entry['name']!r}, "
                    f"which the harness does not compute"
                )
            if entry["better"] not in ("higher", "lower"):
                raise ValueError(f"metric {entry['name']!r}: better must be higher or lower")
    return definition
