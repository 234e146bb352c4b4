"""The four workloads, run inside a fresh child interpreter.

Each workload is a closed loop: it submits its batch, waits for it, and
renders what it produced. ``run_workload`` returns the instant the last
artifact was rendered plus what the digest and the layer table need.

- ``quick-cold``/``quick-warm``: ``registry.run_all(quick=True)`` on the
  process backend with the result cache on. Cold starts from an empty
  cache; warm reuses a cache a cold run filled, so the engines and the pool
  do no work and cache reads, the wire layer, the study and analysis carry
  the time.
- ``sweep-long``: a seeded sample of the unique specs of the full
  (non-quick) matrix straight through ``Executor.map_outcome`` with no cache
  and no duplicate specs, so engine and pool IPC time dominate. The only
  workload whose inputs depend on the seed.
- ``traced``: three experiments with telemetry on, in-process and uncached,
  ending in a Chrome trace export: the one workload on the event engine
  with telemetry, and the one on the in-process backend.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import random
import time

from repro.exec.executor import Executor, set_default_executor
from repro.exec.serialize import result_to_wire
from repro.exec.spec import RunSpec, canonical_json
from repro.experiments import registry
from repro.study import core as study_core
from repro.study.core import StudyStats
from repro.telemetry import chrome
from repro.telemetry import runtime as telemetry_runtime

TRACED_EXPERIMENTS = ("fig05", "fig11", "fig14")

#: ``sweep-long`` draws one spec from each run of this many consecutive
#: full-matrix specs: 279 of the 1116, about 5 s on two workers.
SWEEP_STRIDE = 4

#: ``--smoke`` sizes: the same code paths on inputs that finish in seconds.
SMOKE_QUICK_EXPERIMENTS = ("fig07", "fig09")
SMOKE_TRACED_EXPERIMENTS = ("fig07",)
SMOKE_SWEEP_SPECS = 2


def full_matrix_specs() -> list[RunSpec]:
    """The unique spec cells of every registered study at full size.

    The union ``repro --all`` submits, in registry and cell order, with
    duplicates removed.
    """
    unique: dict[str, RunSpec] = {}
    for build in registry.STUDIES.values():
        for cell in build(quick=False).cells:
            if cell.spec is not None:
                unique.setdefault(cell.spec.content_hash(), cell.spec)
    return list(unique.values())


def sweep_specs(seed: int, stride: int = SWEEP_STRIDE) -> list[RunSpec]:
    """A sample of the full matrix drawn from *seed*: one spec per *stride*.

    Consecutive cells of a study mostly share a scenario and differ in
    repetition, architecture or buffer count, so drawing one from each run
    of *stride* neighbours gives every seed the matrix's mix of studies and
    scenarios and nearly the same amount of work.
    """
    matrix = full_matrix_specs()
    rng = random.Random(seed)
    return [rng.choice(matrix[i : i + stride]) for i in range(0, len(matrix), stride)]


class SetupDone(BaseException):
    """Raised at the first submission of a set-up reading.

    A ``BaseException``, so no ``except Exception`` on the way up stops it.
    """


class BatchLog:
    """Observes every executor batch and study execution of a workload.

    Records the first submission (the end of set-up), every submitted spec
    with its result, the failure count, and the summed study statistics.
    With *stop_at_submit*, the first submission raises :class:`SetupDone`.
    """

    def __init__(self, stop_at_submit: bool = False) -> None:
        self.stop_at_submit = stop_at_submit
        self.first_submit: float | None = None
        self.specs: list[RunSpec] = []
        self.results: list = []
        self.failed = 0
        self.study = StudyStats()
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        original_map = Executor.map_outcome

        def map_outcome(executor, specs):
            specs = list(specs)
            if self.first_submit is None:
                self.first_submit = time.perf_counter()
            if self.stop_at_submit:
                raise SetupDone
            outcome = original_map(executor, specs)
            self.specs.extend(specs)
            self.results.extend(outcome.results)
            self.failed += len(outcome.index_failures)
            return outcome

        self._patch(Executor, "map_outcome", map_outcome)
        original_execute = study_core.execute_studies

        def execute_studies(studies, executor=None):
            results, stats = original_execute(studies, executor=executor)
            for field in dataclasses.fields(StudyStats):
                total = getattr(self.study, field.name) + getattr(stats, field.name)
                setattr(self.study, field.name, total)
            return results, stats

        self._patch(study_core, "execute_studies", execute_studies)
        self._patch(registry, "execute_studies", execute_studies)

    def _patch(self, owner, attribute, replacement) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def unique_specs(self) -> list[RunSpec]:
        """Submitted specs with duplicates removed, in submission order."""
        unique: dict[str, RunSpec] = {}
        for spec in self.specs:
            unique.setdefault(spec.content_hash(), spec)
        return list(unique.values())

    def result_by_hash(self) -> dict[str, object]:
        return {
            spec.content_hash(): result for spec, result in zip(self.specs, self.results)
        }


@dataclasses.dataclass
class Run:
    """What one workload run produced."""

    end: float
    executor: Executor
    rendered: list[str] = dataclasses.field(default_factory=list)
    trace_path: pathlib.Path | None = None
    trace_events: int = 0


def _quick(config: dict, work: pathlib.Path) -> Run:
    executor = Executor(
        jobs=config["jobs"], backend="process", cache=True, cache_dir=config["cache_dir"]
    )
    set_default_executor(executor)
    skip = None
    if config["smoke"]:
        skip = set(registry.EXPERIMENTS) - set(SMOKE_QUICK_EXPERIMENTS)
    results = registry.run_all(quick=True, skip=skip)
    rendered = [result.render() for result in results]
    return Run(end=time.perf_counter(), executor=executor, rendered=rendered)


def _sweep(config: dict, work: pathlib.Path) -> Run:
    specs = sweep_specs(config["seed"])
    if config["smoke"]:
        specs = specs[:SMOKE_SWEEP_SPECS]
    executor = Executor(jobs=config["jobs"], backend="process", cache=False)
    executor.map_outcome(specs)
    return Run(end=time.perf_counter(), executor=executor)


def _traced(config: dict, work: pathlib.Path) -> Run:
    telemetry_runtime.reset()
    telemetry_runtime.set_enabled(True)
    executor = Executor(jobs=1, backend="inprocess", cache=False)
    set_default_executor(executor)
    experiments = SMOKE_TRACED_EXPERIMENTS if config["smoke"] else TRACED_EXPERIMENTS
    rendered = [
        registry.run_experiment(experiment, quick=True).render()
        for experiment in experiments
    ]
    trace_path = work / "trace.json"
    document = chrome.save_chrome_trace(trace_path, telemetry_runtime.collector().snapshots)
    end = time.perf_counter()
    telemetry_runtime.reset()
    return Run(
        end=end,
        executor=executor,
        rendered=rendered,
        trace_path=trace_path,
        trace_events=len(document["traceEvents"]),
    )


_BODIES = {"quick-cold": _quick, "quick-warm": _quick, "sweep-long": _sweep, "traced": _traced}


def run_workload(config: dict, work: pathlib.Path) -> Run:
    return _BODIES[config["workload"]](config, work)


def _strip_wall_clock(text: str) -> str:
    """Drop the ``exec:`` observability lines, which carry wall times."""
    return "\n".join(
        line for line in text.splitlines() if not line.startswith(("exec:", "exec ("))
    )


def _wire_digest(result) -> bytes:
    wire = None if result is None else result_to_wire(result)
    return hashlib.sha256(canonical_json(wire).encode()).digest()


def output_digest(run: Run, log: BatchLog) -> str:
    """sha256 of what the workload produced.

    The Chrome trace for ``traced``; otherwise, for every submitted cell in
    submission order, its spec's content hash and the sha256 of its
    canonical wire result, then every rendered artifact without its
    wall-clock lines. A cell whose result equals the first result of the
    same spec reuses that result's wire digest.
    """
    digest = hashlib.sha256()
    if run.trace_path is not None:
        digest.update(run.trace_path.read_bytes())
        return digest.hexdigest()
    first: dict[str, tuple[object, bytes]] = {}
    for spec, result in zip(log.specs, log.results):
        key = spec.content_hash()
        if key not in first:
            first[key] = (result, _wire_digest(result))
        seen, wire_digest = first[key]
        digest.update(key.encode())
        digest.update(wire_digest if result == seen else _wire_digest(result))
    for text in run.rendered:
        digest.update(_strip_wall_clock(text).encode())
        digest.update(b"\n")
    return digest.hexdigest()
