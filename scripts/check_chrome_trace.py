#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file produced by --trace-out.

Checks, with only the stdlib:
  - the file parses as JSON with the expected document shell,
  - every event carries the required trace_event keys for its phase,
  - duration events have non-negative dur,
  - every pid is named via a process_name metadata event,
  - there is at least one duration or instant event (a trace of pure
    metadata means the instrumentation recorded nothing).

Usage: check_chrome_trace.py TRACE.json
"""

import argparse
import json
import sys

REQUIRED = {
    "M": {"ph", "pid", "name", "args"},
    "X": {"ph", "pid", "tid", "ts", "dur", "name"},
    "i": {"ph", "pid", "tid", "ts", "name"},
    "C": {"ph", "pid", "ts", "name", "args"},
}


def fail(msg):
    print(f"check_chrome_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", help="trace_event JSON file")
    opts = parser.parse_args()

    try:
        with open(opts.trace, "rb") as fp:
            doc = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load {opts.trace}: {exc}")

    if doc.get("displayTimeUnit") != "ms":
        fail("missing displayTimeUnit")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    named_pids = set()
    counts = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        required = REQUIRED.get(ph)
        if required is None:
            fail(f"event {i}: unexpected phase {ph!r}")
        missing = required - ev.keys()
        if missing:
            fail(f"event {i} (ph={ph}): missing keys {sorted(missing)}")
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "X" and ev["dur"] < 0:
            fail(f"event {i}: negative dur {ev['dur']}")
        if ph in ("X", "i", "C") and ev["ts"] < 0:
            fail(f"event {i}: negative ts {ev['ts']}")
        if ph == "M" and ev["name"] == "process_name":
            named_pids.add(ev["pid"])

    unnamed = {e["pid"] for e in events} - named_pids
    if unnamed:
        fail(f"pids without process_name metadata: {sorted(unnamed)}")
    if counts.get("X", 0) + counts.get("i", 0) == 0:
        fail("no duration or instant events recorded")

    summary = ", ".join(f"{ph}={n}" for ph, n in sorted(counts.items()))
    print(f"check_chrome_trace: OK ({len(events)} events: {summary})")


if __name__ == "__main__":
    main()
