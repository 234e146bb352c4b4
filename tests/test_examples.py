"""Smoke test: every example script runs to completion.

The examples are ``simulate()``'s documented callers, live drivers
included. Each runs in a subprocess from a scratch working directory (some
write ``*.trace.json`` files into it). ``regenerate_paper_results.py`` runs
the whole evaluation and is left out.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted(
    path.name
    for path in (ROOT / "examples").glob("*.py")
    if path.name != "regenerate_paper_results.py"
)


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_exits_zero(example, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
