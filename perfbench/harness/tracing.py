"""Spans recorded from outside the program, at the names its callers bind.

A :class:`SpanRecorder` replaces each target callable with a wrapper that
records ``(name, start, end, parent)`` around the call, then restores the
originals. Nothing under ``src/`` changes: a function imported by name into
several modules (``result_to_wire`` in the executor and in the cache) is
wrapped at each binding, and a method is wrapped on its class, so every call
site sees the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``(module, attribute path, span name)`` for every wrapped callable.
TARGETS = (
    ("repro.exec.spec", "DriverSpec.build", "workloads.driver_build"),
    ("repro.fastpath.profile", "load_compiled", "fastpath.profile.load_compiled"),
    ("repro.fastpath.profile", "compile_profile", "fastpath.profile.compile"),
    ("repro.fastpath.engine", "fastpath_attempt", "fastpath.attempt"),
    ("repro.fastpath.replay", "replay_spec", "fastpath.replay"),
    ("repro.pipeline.scheduler_base", "SchedulerBase.run", "sim.event_run"),
    ("repro.exec.executor", "result_to_wire", "exec.serialize.to_wire"),
    ("repro.exec.executor", "result_from_wire", "exec.serialize.from_wire"),
    ("repro.exec.cache", "result_to_wire", "exec.serialize.to_wire"),
    ("repro.exec.cache", "result_from_wire", "exec.serialize.from_wire"),
    ("repro.exec.cache", "ResultCache.get", "exec.cache.get"),
    ("repro.exec.cache", "ResultCache.put", "exec.cache.put"),
    ("repro.exec.executor", "Executor.map_outcome", "exec.executor.map_outcome"),
    ("repro.experiments.registry", "execute_studies", "study.execute"),
    ("repro.study.core", "execute_studies", "study.execute"),
    ("repro.study.core", "StudyResult.analyze", "experiments.analyze"),
    ("repro.experiments.base", "ExperimentResult.render", "experiments.render"),
    ("repro.telemetry.chrome", "save_chrome_trace", "telemetry.export"),
)


def _owner(module_name: str, path: str) -> tuple[object, str]:
    owner: object = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class SpanRecorder:
    """Keeps spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per call, in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, function):
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def install(self, targets=TARGETS) -> None:
        for module_name, path, name in targets:
            owner, attribute = _owner(module_name, path)
            original = getattr(owner, attribute)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)


def summarize_spans(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, busy seconds, self seconds, durations.

    Busy time is the union of the name's intervals, so a span nested in
    another of the same name counts once. Self time is each span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        row = table.setdefault(
            name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations_s": []}
        )
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        row["durations_s"].append(end - start)
        intervals.setdefault(name, []).append((start, end))
    for name, spans_of_name in intervals.items():
        busy, reach = 0.0, float("-inf")
        for start, end in sorted(spans_of_name):
            if end > reach:
                busy += end - max(start, reach)
                reach = end
        table[name]["busy_s"] = busy
    return table


def split_around_child(
    spans: list[list], parent_name: str, child_name: str
) -> tuple[float, float]:
    """Seconds *parent_name* spans ran before their first and after their
    last *child_name* child.

    ``execute_studies`` flattens and hashes its cells, submits one batch,
    then runs its live cells: the head is the study's own work, the tail is
    the live-cell time. A span without that child counts wholly as tail.
    """
    first_start: dict[int, float] = {}
    last_end: dict[int, float] = {}
    for name, start, end, parent in spans:
        if name == child_name and parent >= 0:
            first_start[parent] = min(start, first_start.get(parent, start))
            last_end[parent] = max(end, last_end.get(parent, end))
    head = tail = 0.0
    for index, (name, start, end, _) in enumerate(spans):
        if name != parent_name:
            continue
        if index in first_start:
            head += first_start[index] - start
            tail += end - last_end[index]
        else:
            tail += end - start
    return head, tail
