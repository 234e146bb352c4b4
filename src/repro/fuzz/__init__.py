"""Metamorphic relations over the simulation spec space, and their corpus.

The repository carries two engines that must agree byte-for-byte
(:mod:`repro.sim` event loop vs :mod:`repro.fastpath` replay), a dozen
runtime invariants, and the paper's differential claims. This package holds
the oracles that check them on specs nobody wrote by hand:

* :mod:`~repro.fuzz.relations` — the metamorphic-relation catalog:
  properties that must hold between *related* runs (engine parity,
  determinism, observer neutrality, cache round-trips, budget parity, and
  the paper's differential drops/ordering claims);
* :mod:`~repro.fuzz.corpus` — the JSON repro format under
  ``tests/fuzz/corpus/``; every saved counterexample replays forever as a
  regression test.

Generation and shrinking belong to Hypothesis, a ``dev`` extra:
``tests/fuzz/strategies.py`` draws valid specs and
``tests/fuzz/test_properties.py`` runs each relation as a ``@given``
property (``pytest tests/fuzz``). Nothing under ``src/`` imports Hypothesis.
"""

from repro.fuzz.corpus import CorpusEntry, load_corpus, replay_entry
from repro.fuzz.relations import RELATIONS, Relation, relations_by_name

__all__ = [
    "CorpusEntry",
    "RELATIONS",
    "Relation",
    "load_corpus",
    "relations_by_name",
    "replay_entry",
]
