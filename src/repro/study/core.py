"""The declarative study engine: whole-matrix batching for experiments.

A :class:`Study` is a lazy grid of *cells*. Each cell is addressed by
coordinates (axis name → value: scenario × device × architecture × buffer
configuration × repetition — any axes the experiment needs) and carries
either a content-hashable :class:`~repro.exec.spec.RunSpec` (a *spec cell*,
executed through the supervised executor) or a thunk (a *live cell*, for
runs that attach in-memory objects — predictors, co-design bridges — the
spec layer cannot name; these execute in-process).

Executing a study — or a union of studies via :func:`execute_studies` —
submits **every spec cell as one supervised batch**: the whole matrix fans
out at full executor width, identical specs across cells (and across
studies) collapse by content hash and simulate exactly once, and the keyed
:class:`StudyResult` that comes back offers aggregation helpers: per-cell
selection, mean/sample-stdev over any slice, paired baseline-vs-improved
views, and per-cell failure holes under the ``keep-going`` policy.

This is the layer the ROADMAP's "as fast as the hardware allows" goal asks
of the evaluation suite: the paper's matrix (25 apps × buffer sweeps, 75 OS
cases, 15 games, Appendix A's five-run averaging) is declared once and
saturates the pool, instead of trickling out as serial two-arm mini-batches.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError, ExecutionError
from repro.exec.spec import RunSpec
from repro.exec.supervisor import RunFailure

#: A cell key: the coordinates as a sorted, hashable tuple of pairs.
Key = tuple[tuple[str, Any], ...]


def cell_key(coords: Mapping[str, Any]) -> Key:
    """Canonical hashable key for a coordinate mapping."""
    return tuple(sorted(coords.items()))


@dataclasses.dataclass
class Cell:
    """One grid point of a study: coordinates plus how to produce its value.

    Exactly one of ``spec`` (batched through the executor) and ``thunk``
    (called in-process at execution time) is set.
    """

    coords: dict[str, Any]
    spec: RunSpec | None = None
    thunk: Callable[[], Any] | None = None

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.thunk is None):
            raise ConfigurationError(
                "a cell carries exactly one of a RunSpec or a live thunk"
            )
        self.key: Key = cell_key(self.coords)

    def matches(self, coords: Mapping[str, Any]) -> bool:
        return all(self.coords.get(axis) == value for axis, value in coords.items())


@dataclasses.dataclass
class StudyStats:
    """What one execution (a single study or a union) submitted and got back."""

    studies: int = 0
    cells: int = 0
    spec_cells: int = 0
    live_cells: int = 0
    unique_specs: int = 0
    dedup_hits: int = 0
    holes: int = 0

    def describe(self) -> str:
        line = (
            f"{self.studies} studies, {self.cells} cells "
            f"({self.spec_cells} batched, {self.live_cells} live): "
            f"{self.unique_specs} unique specs, {self.dedup_hits} collapsed "
            f"by content hash"
        )
        if self.holes:
            line += f", {self.holes} failure holes"
        return line


class Study:
    """A named, lazy grid of cells with an attached analysis step.

    Args:
        name: Study label (observability, error messages).
        analyze: Optional callable mapping the executed :class:`StudyResult`
            to the experiment's artifact (usually an
            :class:`~repro.experiments.base.ExperimentResult`).
    """

    def __init__(
        self, name: str, analyze: Callable[["StudyResult"], Any] | None = None
    ) -> None:
        self.name = name
        self.analyze = analyze
        self.cells: list[Cell] = []
        self._keys: set[Key] = set()

    def __len__(self) -> int:
        return len(self.cells)

    def _add_cell(self, cell: Cell) -> None:
        if cell.key in self._keys:
            raise ConfigurationError(
                f"study {self.name!r}: duplicate cell {dict(cell.key)!r}"
            )
        self._keys.add(cell.key)
        self.cells.append(cell)

    def add(self, spec: RunSpec, **coords: Any) -> "Study":
        """Add one spec cell at the given coordinates."""
        self._add_cell(Cell(coords=coords, spec=spec))
        return self

    def add_live(self, thunk: Callable[[], Any], **coords: Any) -> "Study":
        """Add one live cell: *thunk* runs in-process at execution time."""
        self._add_cell(Cell(coords=coords, thunk=thunk))
        return self

    def grid(
        self,
        cell_for: Callable[..., RunSpec | Callable[[], Any] | None],
        **axes: Sequence[Any],
    ) -> "Study":
        """Expand the cartesian product of *axes* through *cell_for*.

        ``cell_for(**coords)`` returns a :class:`RunSpec` (spec cell), a
        zero-argument callable (live cell), or ``None`` to skip the point.
        Axes expand in keyword order, last axis fastest.
        """
        names = list(axes)
        for values in itertools.product(*(axes[name] for name in names)):
            coords = dict(zip(names, values))
            made = cell_for(**coords)
            if made is None:
                continue
            if isinstance(made, RunSpec):
                self.add(made, **coords)
            elif callable(made):
                self.add_live(made, **coords)
            else:
                raise ConfigurationError(
                    f"study {self.name!r}: grid cell at {coords!r} must be a "
                    f"RunSpec, a callable, or None; got {made!r}"
                )
        return self

    @property
    def specs(self) -> list[RunSpec]:
        """Every spec this study would submit (duplicates included)."""
        return [cell.spec for cell in self.cells if cell.spec is not None]

    def execute(self, executor=None) -> "StudyResult":
        """Run the whole matrix as one supervised executor batch."""
        [result], _stats = execute_studies([self], executor=executor)
        return result

    def run(self, executor=None) -> Any:
        """Execute, then hand the keyed result to the analysis step."""
        return self.execute(executor=executor).analyze()


class CompositeStudy(Study):
    """A study made of sub-studies, executed as one matrix.

    The parts' cells are flattened into the composite (each tagged with a
    ``study`` coordinate naming its part), so a union submission — and the
    executor's content-hash dedup across parts — covers all of them in a
    single batch. Analysis runs each part's own ``analyze`` over its slice
    of the results, then ``combine`` merges the per-part artifacts.
    """

    def __init__(
        self,
        name: str,
        parts: Sequence[Study],
        combine: Callable[[list[Any]], Any] | None = None,
    ) -> None:
        super().__init__(name, analyze=self._analyze_parts)
        self.parts = list(parts)
        self.combine = combine
        #: composite key -> (part index, the part's own cell)
        self._part_cells: dict[Key, tuple[int, Cell]] = {}
        for index, part in enumerate(self.parts):
            for cell in part.cells:
                coords = {**cell.coords, "study": f"{index}:{part.name}"}
                flat = Cell(coords=coords, spec=cell.spec, thunk=cell.thunk)
                self._add_cell(flat)
                self._part_cells[flat.key] = (index, cell)

    def part_results(self, result: "StudyResult") -> list["StudyResult"]:
        """Re-key the composite's executed cells into per-part results."""
        values: list[dict[Key, Any]] = [{} for _ in self.parts]
        failures: list[dict[Key, RunFailure]] = [{} for _ in self.parts]
        for cell in self.cells:
            index, part_cell = self._part_cells[cell.key]
            values[index][part_cell.key] = result.values.get(cell.key)
            failure = result.failures.get(cell.key)
            if failure is not None:
                failures[index][part_cell.key] = failure
        return [
            StudyResult(part, values[index], failures[index], stats=result.stats)
            for index, part in enumerate(self.parts)
        ]

    def _analyze_parts(self, result: "StudyResult") -> Any:
        """The composite's analysis: each part over its slice, then merge."""
        analyzed = [
            part_result.analyze()
            for part_result in self.part_results(result)
        ]
        if self.combine is None:
            return analyzed
        return self.combine(analyzed)


class StudyResult:
    """Keyed outcomes of one executed study.

    ``values[key]`` is the cell's value — a
    :class:`~repro.pipeline.scheduler_base.RunResult` for spec cells,
    whatever the thunk returned for live cells, or ``None`` for a *failure
    hole* (a spec that failed under the ``keep-going`` policy; the
    structured record is in ``failures[key]``). ``stats`` is the
    :class:`StudyStats` of the execution that produced it (for a union, the
    whole union's), the one store of study counters.
    """

    def __init__(
        self,
        study: Study,
        values: dict[Key, Any],
        failures: dict[Key, RunFailure] | None = None,
        stats: StudyStats | None = None,
    ) -> None:
        self.study = study
        self.values = values
        self.failures = failures or {}
        self.stats = stats or StudyStats()

    # ------------------------------------------------------------- selection
    def cells(self, **coords: Any) -> list[Cell]:
        """Cells matching the coordinate subset, in insertion order."""
        return [cell for cell in self.study.cells if cell.matches(coords)]

    def select(self, **coords: Any) -> list[Any]:
        """Matching cell values in insertion order (``None`` = failure hole)."""
        return [self.values.get(cell.key) for cell in self.cells(**coords)]

    def get(self, **coords: Any) -> Any:
        """The value of exactly one cell (raises unless the match is unique)."""
        matched = self.cells(**coords)
        if len(matched) != 1:
            raise ExecutionError(
                f"study {self.study.name!r}: {coords!r} matched "
                f"{len(matched)} cells, expected exactly 1"
            )
        return self.values.get(matched[0].key)

    def holes(self, **coords: Any) -> list[tuple[Cell, RunFailure | None]]:
        """Cells whose run failed, with their structured failure records."""
        return [
            (cell, self.failures.get(cell.key))
            for cell in self.cells(**coords)
            if self.values.get(cell.key) is None and cell.spec is not None
        ]

    # ----------------------------------------------------------- aggregation
    def mean_of(self, metric: Callable[[Any], float], **coords: Any) -> float:
        """Mean of ``metric(value)`` over the slice, skipping failure holes."""
        values = [metric(v) for v in self.select(**coords) if v is not None]
        return statistics.fmean(values) if values else 0.0

    def stats_of(
        self, metric: Callable[[Any], float], **coords: Any
    ) -> tuple[float, float]:
        """(mean, sample stdev) of ``metric(value)`` over the slice.

        The stdev is 0.0 with fewer than two surviving cells.
        """
        values = [metric(v) for v in self.select(**coords) if v is not None]
        if not values:
            return 0.0, 0.0
        mean = statistics.fmean(values)
        sd = statistics.stdev(values) if len(values) >= 2 else 0.0
        return mean, sd

    def pairs(
        self, baseline: Mapping[str, Any], improved: Mapping[str, Any], **coords: Any
    ) -> list[tuple[Any, Any]]:
        """Positionally paired (baseline, improved) values over the slice.

        Both selections are taken in insertion order within the common
        *coords* slice; a pair is dropped when **either** side is a failure
        hole, so paired aggregates (the VSync-vs-D-VSync deltas the paper
        averages) always compare identical workloads.
        """
        first = self.select(**{**coords, **baseline})
        second = self.select(**{**coords, **improved})
        if len(first) != len(second):
            raise ExecutionError(
                f"study {self.study.name!r}: paired slices differ in size "
                f"({len(first)} vs {len(second)}) for {baseline!r} vs "
                f"{improved!r} within {coords!r}"
            )
        return [
            (one, other)
            for one, other in zip(first, second)
            if one is not None and other is not None
        ]

    def analyze(self) -> Any:
        """Apply the study's analysis step to this result."""
        if self.study.analyze is None:
            raise ConfigurationError(
                f"study {self.study.name!r} has no analysis step attached"
            )
        return self.study.analyze(self)


def execute_studies(
    studies: Iterable[Study], executor=None
) -> tuple[list[StudyResult], StudyStats]:
    """Execute several studies' matrices as **one** supervised batch.

    Every spec cell of every study goes out in a single
    :meth:`~repro.exec.executor.Executor.map_outcome` submission — identical
    specs across cells and across studies (the same scenario/device/config
    appearing in several figures) collapse by content hash inside the
    executor and simulate exactly once. Live cells run in-process, study by
    study, after the batch returns. Per-spec failures follow the executor's
    policy: ``fail-fast`` raises
    :class:`~repro.errors.BatchExecutionError` after salvaging siblings;
    ``keep-going`` leaves keyed ``None`` holes with structured records.
    """
    from repro.exec.executor import get_default_executor

    studies = list(studies)
    if executor is None:
        executor = get_default_executor()

    flat_specs: list[RunSpec] = []
    owners: list[tuple[int, Cell]] = []  # aligned with flat_specs
    stats = StudyStats(studies=len(studies))
    for index, study in enumerate(studies):
        for cell in study.cells:
            stats.cells += 1
            if cell.spec is not None:
                stats.spec_cells += 1
                flat_specs.append(cell.spec)
                owners.append((index, cell))
            else:
                stats.live_cells += 1

    stats.unique_specs = len({spec.content_hash() for spec in flat_specs})
    stats.dedup_hits = len(flat_specs) - stats.unique_specs

    values: list[dict[Key, Any]] = [{} for _ in studies]
    failures: list[dict[Key, RunFailure]] = [{} for _ in studies]
    if flat_specs:
        outcome = executor.map_outcome(flat_specs)
        for position, (index, cell) in enumerate(owners):
            values[index][cell.key] = outcome.results[position]
            failure = outcome.index_failures.get(position)
            if failure is not None:
                failures[index][cell.key] = failure
                stats.holes += 1
        if outcome.failures and executor.policy == "fail-fast":
            outcome.raise_for_failures()

    for index, study in enumerate(studies):
        for cell in study.cells:
            if cell.thunk is not None:
                values[index][cell.key] = cell.thunk()

    return (
        [
            StudyResult(study, values[index], failures[index], stats=stats)
            for index, study in enumerate(studies)
        ],
        stats,
    )
