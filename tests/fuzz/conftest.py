"""Shared fixtures for the fuzz suite.

Most relations exercise the dual-engine contract, and fastpath eligibility
requires the process-wide verification switch *off* (the suite-wide strict
fixture turns it on). Individual tests that probe the process switches flip
them back deliberately.
"""

from __future__ import annotations

import pathlib

import pytest

#: The checked-in regression corpus, resolved relative to this file so the
#: suite replays it regardless of pytest's working directory.
CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


@pytest.fixture(autouse=True)
def _verification_off():
    """Keep the process verify switch off: a spec's ``verify`` flag decides."""
    from repro.verify import runtime

    runtime.set_enabled(False)
    yield
    runtime.reset()


@pytest.fixture
def execute():
    """In-process execution, exactly like the properties'."""
    from repro.exec.executor import execute_spec

    return execute_spec
