"""Correctness verification: runtime invariants, differential oracle, goldens.

Three layers, each usable on its own:

- :mod:`repro.verify.invariants` — an :class:`InvariantChecker` that checks
  the paper's structural claims (buffer conservation, D-Timestamp
  monotonicity, accumulation limits, rate-bound display) against a finished
  run and its emission log, on either engine. Enable per run with
  ``verify=True``, per spec with ``RunSpec(verify=True)``, or process-wide
  via :mod:`repro.verify.runtime`.
- :mod:`repro.verify.oracle` — a differential oracle that runs the same
  seeded workload under VSync and D-VSync and asserts the *relational*
  claims no single run can check (decoupling never drops more, never
  reorders content, pays bounded latency for its wins).
- :mod:`repro.verify.golden` — a golden-trace corpus under ``tests/golden/``
  pinning run digests against behavioural drift, refreshed by
  ``scripts/update_goldens.py``.

``python -m repro --verify`` runs the oracle and the golden comparator.
"""

from repro.verify.golden import (
    GoldenCheckReport,
    check_goldens,
    default_golden_dir,
    golden_specs,
    run_digest,
    write_goldens,
)
from repro.verify.invariants import (
    INVARIANTS,
    InvariantChecker,
    Violation,
    resolve_checker,
)
from repro.verify.oracle import (
    ORACLE_SCENARIOS,
    DifferentialReport,
    run_differential_oracle,
)

__all__ = [
    "INVARIANTS",
    "InvariantChecker",
    "Violation",
    "resolve_checker",
    "ORACLE_SCENARIOS",
    "DifferentialReport",
    "run_differential_oracle",
    "GoldenCheckReport",
    "check_goldens",
    "default_golden_dir",
    "golden_specs",
    "run_digest",
    "write_goldens",
]
