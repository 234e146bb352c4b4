"""Supervised fuzz campaigns: generate → one batch → judge → shrink → emit.

A campaign is four deterministic phases:

1. **Generate** — :class:`~repro.fuzz.generator.SpecGenerator` draws
   ``budget`` specs from the knob space (coverage-biased, seed-replayable).
2. **Execute** — every probe every applicable relation needs is collected
   into ONE supervised :meth:`~repro.exec.executor.Executor.map_outcome`
   batch: the executor deduplicates identical probes by content hash across
   the whole campaign, and a crashing or hanging worker surfaces as a
   structured :class:`~repro.exec.supervisor.RunFailure` — recorded here as
   an ``execution`` finding — instead of killing the campaign.
3. **Judge** — each ``(spec, relation)`` pair whose probes all produced
   results runs the relation's ``check``; derived runs the batch cannot
   carry (forced engines, repeat executions) happen in-process. A crash
   *inside* a check is itself a finding (``evaluation-crash``).
4. **Shrink & emit** — violations are greedily minimized along every knob
   axis and written into the corpus as replayable JSON repros; findings
   deduplicate by (relation, minimized content hash).

Everything observable — the findings list, the report wire form, the
rendered summary — is free of wall-clock measurements, so two campaigns
with the same seed and budget produce byte-identical findings files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Sequence

from repro.errors import ConfigurationError
from repro.exec.executor import Executor, execute_spec
from repro.exec.spec import RunSpec, canonical_json
from repro.fuzz.corpus import entry_from_finding, save_entry
from repro.fuzz.generator import SpecGenerator
from repro.fuzz.relations import Relation, relations_by_name
from repro.fuzz.shrinker import Shrinker, knob_delta, spec_delta_summary

#: Bump when the findings-file layout changes.
FINDINGS_SCHEMA_VERSION = 1

#: Default findings artifact the CLI writes.
DEFAULT_FINDINGS_PATH = "FUZZ_findings.json"

#: Environment default for ``--budget`` (CI knob).
BUDGET_ENV_VAR = "REPRO_FUZZ_BUDGET"


def validate_budget(budget: object, source: str = "budget") -> int:
    """Check a campaign budget: positive int, else ConfigurationError."""
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ConfigurationError(
            f"{source} must be an integer number of specs, got {budget!r}"
        )
    if budget < 1:
        raise ConfigurationError(f"{source} must be >= 1, got {budget}")
    return budget


def validate_seed(seed: object, source: str = "seed") -> int:
    """Check a campaign seed: non-negative int, else ConfigurationError."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigurationError(f"{source} must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigurationError(f"{source} must be >= 0, got {seed}")
    return seed


def budget_from_env(default: int = 100) -> int:
    """Resolve the default budget from ``REPRO_FUZZ_BUDGET``."""
    text = os.environ.get(BUDGET_ENV_VAR, "")
    if not text:
        return default
    try:
        value = int(text)
    except ValueError:
        raise ConfigurationError(
            f"{BUDGET_ENV_VAR} must be an integer number of specs, got {text!r}"
        ) from None
    return validate_budget(value, source=BUDGET_ENV_VAR)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One campaign discovery: a violated relation or a harness failure.

    ``kind`` is ``"violation"`` for a relation the check failed,
    ``"evaluation-crash"`` for an exception inside a check, or an executor
    failure-taxonomy kind (``crash``/``timeout``/``config``/``cache-corrupt``)
    for a probe the supervised batch could not execute.
    """

    relation: str
    kind: str
    detail: str
    spec_wire: dict
    spec_hash: str
    shrunk_wire: dict | None = None
    shrunk_hash: str | None = None
    knob_delta: int | None = None
    shrink_summary: str | None = None
    corpus_path: str | None = None

    def to_wire(self) -> dict:
        return {
            "relation": self.relation,
            "kind": self.kind,
            "detail": self.detail,
            "spec": self.spec_wire,
            "spec_hash": self.spec_hash,
            "shrunk_spec": self.shrunk_wire,
            "shrunk_hash": self.shrunk_hash,
            "knob_delta": self.knob_delta,
            "shrink_summary": self.shrink_summary,
            "corpus_path": self.corpus_path,
        }

    def describe(self) -> str:
        head = f"[{self.kind}] {self.relation}: {self.detail}"
        if self.shrunk_hash is not None:
            head += f" (shrunk to {self.shrunk_hash[:12]}, delta {self.knob_delta})"
        return head


@dataclasses.dataclass
class FuzzReport:
    """Everything one campaign produced, wire-stable and wall-clock-free."""

    seed: int
    budget: int
    relations: list[str]
    specs_generated: int
    cells_visited: int
    probes_submitted: int
    probes_unique: int
    pairs_checked: int
    findings: list[Finding]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_wire(self) -> dict:
        return {
            "schema": FINDINGS_SCHEMA_VERSION,
            "seed": self.seed,
            "budget": self.budget,
            "relations": self.relations,
            "specs_generated": self.specs_generated,
            "cells_visited": self.cells_visited,
            "probes_submitted": self.probes_submitted,
            "probes_unique": self.probes_unique,
            "pairs_checked": self.pairs_checked,
            "findings": [finding.to_wire() for finding in self.findings],
        }

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the canonical findings JSON (byte-stable across reruns)."""
        target = pathlib.Path(path)
        target.write_text(canonical_json(self.to_wire()) + "\n")
        return target

    def render(self) -> str:
        lines = [
            f"fuzz campaign: seed={self.seed} budget={self.budget} "
            f"relations={','.join(self.relations)}",
            f"  generated {self.specs_generated} specs over "
            f"{self.cells_visited} coverage cells; "
            f"{self.probes_submitted} probes ({self.probes_unique} unique) "
            f"in one supervised batch; {self.pairs_checked} relation checks",
        ]
        if self.ok:
            lines.append("  => no violations")
        else:
            for finding in self.findings:
                lines.append(f"  FAIL {finding.describe()}")
            lines.append(f"  => {len(self.findings)} finding(s)")
        return "\n".join(lines)


class FuzzCampaign:
    """One configured campaign; :meth:`run` executes the four phases.

    Args:
        budget: Specs to generate (positive int; the probe batch is larger).
        seed: Generator seed (non-negative int).
        relations: ``--relation`` selections, or ``None`` for the catalog.
        executor: Supervised executor for the batch phase; defaults to a
            hermetic in-process executor with no cache (determinism: cache
            hits must never change what the findings file records).
        corpus_dir: Where shrunk violations are emitted as repros;
            ``None`` disables emission.
        shrink: Disable to record raw violating specs (debugging aid).
        generator: Override the spec source (tests inject fixed specs).
    """

    def __init__(
        self,
        budget: int,
        seed: int = 0,
        relations: Sequence[str] | None = None,
        executor: Executor | None = None,
        corpus_dir: str | pathlib.Path | None = None,
        shrink: bool = True,
        generator: SpecGenerator | None = None,
    ) -> None:
        self.budget = validate_budget(budget)
        self.seed = validate_seed(seed)
        self.relations = relations_by_name(relations)
        self.executor = executor
        self.corpus_dir = corpus_dir
        self.shrink = shrink
        self.generator = (
            generator if generator is not None else SpecGenerator(self.seed)
        )

    @property
    def source(self) -> str:
        return f"fuzz seed={self.seed} budget={self.budget}"

    # ------------------------------------------------------------------ main
    def run(self) -> FuzzReport:
        specs = list(self.generator.take(self.budget))

        # Phase 2: collect every relation's probes into one batch.
        batch: list[RunSpec] = []
        plans: list[tuple[RunSpec, Relation, list[int]]] = []
        for spec in specs:
            for relation in self.relations:
                if not relation.applies(spec):
                    continue
                positions = []
                for probe in relation.probes(spec):
                    positions.append(len(batch))
                    batch.append(probe)
                plans.append((spec, relation, positions))

        executor = self.executor if self.executor is not None else Executor()
        stats_before = executor.stats.snapshot()
        outcome = executor.map_outcome(batch)
        delta = executor.stats.since(stats_before)

        findings: list[Finding] = []
        seen: set[tuple[str, str, str]] = set()

        def emit(finding: Finding) -> None:
            key = (
                finding.relation,
                finding.kind,
                finding.shrunk_hash or finding.spec_hash,
            )
            if key in seen:
                return
            seen.add(key)
            findings.append(finding)

        # Supervised-batch failures are findings in their own right.
        for index in sorted(outcome.index_failures):
            failure = outcome.index_failures[index]
            probe = batch[index]
            emit(
                Finding(
                    relation="execution",
                    kind=failure.kind,
                    detail=failure.message,
                    spec_wire=probe.to_wire(),
                    spec_hash=failure.spec_hash,
                )
            )

        # Phase 3/4: judge every fully-resolved pair; shrink violations.
        pairs_checked = 0
        for spec, relation, positions in plans:
            results = [outcome.results[position] for position in positions]
            if any(result is None for result in results):
                continue  # probe failed; already recorded above
            pairs_checked += 1
            try:
                detail = relation.check(spec, results, execute_spec)
            except Exception as exc:
                emit(
                    Finding(
                        relation=relation.name,
                        kind="evaluation-crash",
                        detail=f"{type(exc).__name__}: {exc}",
                        spec_wire=spec.to_wire(),
                        spec_hash=spec.content_hash(),
                    )
                )
                continue
            if detail is None:
                continue
            emit(self._violation_finding(spec, relation, detail))

        return FuzzReport(
            seed=self.seed,
            budget=self.budget,
            relations=[relation.name for relation in self.relations],
            specs_generated=len(specs),
            cells_visited=self.generator.cells_visited,
            probes_submitted=len(batch),
            probes_unique=len(batch) - delta.deduplicated,
            pairs_checked=pairs_checked,
            findings=findings,
        )

    def _violation_finding(
        self, spec: RunSpec, relation: Relation, detail: str
    ) -> Finding:
        shrunk = shrunk_detail = None
        delta = summary = corpus_path = None
        if self.shrink:
            shrinker = Shrinker(relation, execute_spec)
            shrunk, shrunk_detail, delta = shrinker.shrink(spec, detail)
            summary = spec_delta_summary(spec, shrunk)
        else:
            shrunk, shrunk_detail, delta = spec, detail, knob_delta(spec)
        if self.corpus_dir is not None:
            entry = entry_from_finding(
                relation.name, shrunk, shrunk_detail, self.source, delta
            )
            corpus_path = str(save_entry(entry, self.corpus_dir))
        return Finding(
            relation=relation.name,
            kind="violation",
            detail=detail,
            spec_wire=spec.to_wire(),
            spec_hash=spec.content_hash(),
            shrunk_wire=json.loads(canonical_json(shrunk.to_wire())),
            shrunk_hash=shrunk.content_hash(),
            knob_delta=delta,
            shrink_summary=summary,
            corpus_path=corpus_path,
        )


def run_campaign(
    budget: int,
    seed: int = 0,
    relations: Sequence[str] | None = None,
    executor: Executor | None = None,
    corpus_dir: str | pathlib.Path | None = None,
    shrink: bool = True,
) -> FuzzReport:
    """Convenience front door: configure and run one campaign."""
    return FuzzCampaign(
        budget=budget,
        seed=seed,
        relations=relations,
        executor=executor,
        corpus_dir=corpus_dir,
        shrink=shrink,
    ).run()
