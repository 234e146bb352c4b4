#!/usr/bin/env python
"""CI gate: the --trace artifact must be a valid Chrome trace.

Loads a trace-event JSON file written by ``python -m repro <exp> --trace``
and checks it against the Chrome Trace Event Format contract enforced by
``repro.telemetry.chrome.validate_chrome_trace`` (every event carries
``ph``/``ts``/``pid``/``tid``/``name``), plus a few artifact-level sanity
floors: the file is non-empty, contains duration spans, and names at least
one process via metadata events. The file must also be in canonical form,
byte for byte what ``json.dumps`` writes for its own content, which is how
the streaming exporter promises to write it. Exits non-zero with a
diagnostic on any violation.

Usage: PYTHONPATH=src python scripts/validate_trace_artifact.py out.json
"""

from __future__ import annotations

import json
import sys
from collections import Counter


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: validate_trace_artifact.py <trace.json>", file=sys.stderr)
        return 2
    path = argv[0]

    from repro.telemetry.chrome import validate_chrome_trace

    with open(path, "rb") as handle:
        raw = handle.read()
    payload = json.loads(raw)
    if json.dumps(payload).encode() != raw:
        print(
            f"FAIL: {path} is not in json.dumps canonical form "
            "(separators, escaping or number spelling differ)",
            file=sys.stderr,
        )
        return 1

    try:
        validate_chrome_trace(payload)
    except Exception as error:  # noqa: BLE001 - CI diagnostic
        print(f"FAIL: {path} is not a valid Chrome trace: {error}", file=sys.stderr)
        return 1

    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    phases = Counter(event["ph"] for event in events)
    pids = {event["pid"] for event in events}
    print(
        f"{path}: {len(events)} events, {len(pids)} process(es), "
        f"phases={dict(sorted(phases.items()))}"
    )

    if not events:
        print("FAIL: trace contains no events", file=sys.stderr)
        return 1
    if phases.get("X", 0) == 0:
        print("FAIL: trace contains no duration spans (ph=X)", file=sys.stderr)
        return 1
    if not any(
        event["ph"] == "M" and event["name"] == "process_name" for event in events
    ):
        print("FAIL: trace names no process (ph=M metadata)", file=sys.stderr)
        return 1
    print("OK: trace artifact is valid")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
