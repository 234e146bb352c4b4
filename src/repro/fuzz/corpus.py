"""The replayable finding corpus: minimized specs as permanent regressions.

Each entry is one JSON file under ``tests/fuzz/corpus/`` pairing a relation
name with a minimized :class:`~repro.exec.spec.RunSpec` wire form. When a
property in ``tests/fuzz/test_properties.py`` fails, its message carries the
shrunk spec as a ready-to-save entry (:meth:`CorpusEntry.to_json`) and its
file name. ``tests/fuzz/test_corpus_replay.py`` re-runs every entry through
its recorded relation on each tier-1 pass, so a bug found once can never
silently return. The corpus also holds hand-crafted edge specs sitting on
boundaries the hand-written suites historically missed.

Filenames are content-derived (``<relation>-<hash12>.json``) so re-finding
the same minimized spec overwrites, never duplicates.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Any, Mapping

from repro.errors import ConfigurationError
from repro.exec.spec import RunSpec
from repro.fuzz.relations import ExecuteFn, relations_by_name

#: Bump when the corpus entry layout changes.
CORPUS_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    """One replayable finding (or hand-seeded edge case).

    Attributes:
        relation: Name of the relation to re-check on replay.
        spec_wire: Wire form of the (minimized) spec.
        detail: The violation message at discovery time, or the reason a
            hand-crafted entry exists. Documentation only — replay asserts
            the relation *holds*, whatever the historical message said.
        source: Provenance: ``"hand-crafted"`` or ``"hypothesis"``.
        knob_delta: Distance from the all-defaults spec, where recorded;
            every checked-in entry has ``None``.
    """

    relation: str
    spec_wire: dict
    detail: str
    source: str = "hand-crafted"
    knob_delta: int | None = None

    def spec(self) -> RunSpec:
        return RunSpec.from_wire(self.spec_wire)

    def to_wire(self) -> dict:
        return {
            "schema": CORPUS_SCHEMA_VERSION,
            "relation": self.relation,
            "spec": self.spec_wire,
            "detail": self.detail,
            "source": self.source,
            "knob_delta": self.knob_delta,
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "CorpusEntry":
        schema = wire.get("schema")
        if schema != CORPUS_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported corpus entry schema {schema!r} "
                f"(expected {CORPUS_SCHEMA_VERSION})"
            )
        return cls(
            relation=wire["relation"],
            spec_wire=dict(wire["spec"]),
            detail=wire.get("detail", ""),
            source=wire.get("source", "hand-crafted"),
            knob_delta=wire.get("knob_delta"),
        )

    def filename(self) -> str:
        return f"{self.relation}-{self.spec().content_hash()[:12]}.json"

    def to_json(self) -> str:
        """The entry's file text, exactly as :func:`save_entry` writes it."""
        return json.dumps(self.to_wire(), indent=2, sort_keys=True) + "\n"


def save_entry(entry: CorpusEntry, corpus_dir: str | pathlib.Path) -> pathlib.Path:
    """Write *entry* into *corpus_dir* (created if missing); returns the path."""
    root = pathlib.Path(corpus_dir)
    root.mkdir(parents=True, exist_ok=True)
    path = root / entry.filename()
    path.write_text(entry.to_json())
    return path


def load_corpus(
    corpus_dir: str | pathlib.Path,
) -> list[tuple[pathlib.Path, CorpusEntry]]:
    """Load every entry under *corpus_dir*, sorted by filename.

    A malformed file raises :class:`~repro.errors.ConfigurationError` naming
    it — a corrupt regression corpus should fail the suite, not skip.
    """
    root = pathlib.Path(corpus_dir)
    entries: list[tuple[pathlib.Path, CorpusEntry]] = []
    if not root.is_dir():
        return entries
    for path in sorted(root.glob("*.json")):
        try:
            entries.append((path, CorpusEntry.from_wire(json.loads(path.read_text()))))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigurationError(f"corrupt corpus entry {path}: {exc}") from None
    return entries


def replay_entry(entry: CorpusEntry, execute: ExecuteFn) -> str | None:
    """Re-run one corpus entry through its recorded relation.

    Returns the violation detail if the relation fails *today* (a
    regression), or ``None`` when it holds. A relation that no longer
    applies to the stored spec passes vacuously — shifting eligibility
    rules must not break historical repros.
    """
    (relation,) = relations_by_name([entry.relation])
    spec = entry.spec()
    if not relation.applies(spec):
        return None
    return relation.check(spec, execute)
