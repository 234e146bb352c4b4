"""Coverage-guided differential fuzzing of the simulation spec space.

The repository carries two engines that must agree byte-for-byte
(:mod:`repro.sim` event loop vs :mod:`repro.fastpath` replay), a dozen
runtime invariants, and a supervised executor — all exercised, before this
package, only on hand-picked scenarios. :mod:`repro.fuzz` searches the full
:class:`~repro.exec.spec.RunSpec` knob space instead:

* :class:`~repro.fuzz.generator.SpecGenerator` — seeded, deterministic
  sampling of the spec space (driver family × device × architecture ×
  buffer/D-VSync config × fault schedule × observer toggles × engine) with
  coverage feedback biasing draws toward unvisited cells;
* :mod:`~repro.fuzz.relations` — the metamorphic-relation catalog used as
  oracles: properties that must hold between *related* runs (engine parity,
  determinism, observer neutrality, cache round-trips, budget parity, and
  the paper's differential drops/ordering claims);
* :class:`~repro.fuzz.shrinker.Shrinker` — greedy per-knob minimization of a
  violating spec, so findings land as small, readable repros;
* :class:`~repro.fuzz.campaign.FuzzCampaign` — one supervised
  :meth:`~repro.exec.executor.Executor.map_outcome` batch per campaign, so a
  crashing or hanging worker becomes a structured finding instead of killing
  the run;
* :mod:`~repro.fuzz.corpus` — the JSON repro format under
  ``tests/fuzz/corpus/``; every minimized finding replays forever as a
  regression test.

Front doors: ``python -m repro fuzz --budget N --seed S`` and
``scripts/check_fuzz.py`` (CI gate: deterministic, zero surviving
violations).
"""

from repro.fuzz.campaign import FuzzCampaign, FuzzReport, run_campaign
from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry
from repro.fuzz.generator import SpecGenerator
from repro.fuzz.relations import RELATIONS, Relation, relations_by_name
from repro.fuzz.shrinker import Shrinker

__all__ = [
    "CorpusEntry",
    "FuzzCampaign",
    "FuzzReport",
    "RELATIONS",
    "Relation",
    "Shrinker",
    "SpecGenerator",
    "load_corpus",
    "relations_by_name",
    "run_campaign",
]
