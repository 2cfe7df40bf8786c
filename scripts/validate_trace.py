#!/usr/bin/env python
"""Validate a Chrome ``trace_event`` JSON file exported by ``repro trace``.

A structural schema check with stdlib only (CI has no jsonschema): the
file must be a JSON object with a ``traceEvents`` list where every event
has ``name``/``ph``/``pid``/``tid``, complete (``"X"``) events carry
non-negative numeric ``ts``/``dur`` plus ``args.span_id``, and metadata
(``"M"``) events carry ``args.name``.  ``otherData.span_count`` must
match the number of complete events.

Exits 0 when valid, 1 with a finding list otherwise.

Usage::

    python scripts/validate_trace.py /tmp/demo-trace.json
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from typing import Any, List

VALID_PHASES = {"X", "M", "B", "E", "i"}


def validate_chrome_trace(payload: Any) -> List[str]:
    """Return every schema violation found in ``payload`` (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if payload.get("displayTimeUnit") not in ("ms", "ns"):
        errors.append("'displayTimeUnit' must be 'ms' or 'ns'")

    complete = 0
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: event is not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase not in VALID_PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
        if phase == "X":
            complete += 1
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, numbers.Real) or value < 0:
                    errors.append(
                        f"{where}: {key!r} must be a non-negative number, "
                        f"got {value!r}"
                    )
            args = event.get("args")
            if not isinstance(args, dict) or "span_id" not in args:
                errors.append(f"{where}: complete event needs args.span_id")
        elif phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata event needs args.name")

    other = payload.get("otherData")
    if isinstance(other, dict) and "span_count" in other:
        if other["span_count"] != complete:
            errors.append(
                f"otherData.span_count={other['span_count']} but the file "
                f"has {complete} complete events"
            )
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Validate a Chrome trace_event JSON file"
    )
    parser.add_argument("path", help="file to validate")
    args = parser.parse_args(argv)
    try:
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"invalid: {args.path}: {exc}", file=sys.stderr)
        return 1
    errors = validate_chrome_trace(payload)
    if errors:
        for error in errors:
            print(f"invalid: {error}", file=sys.stderr)
        return 1
    events = len(payload["traceEvents"])
    print(f"valid Chrome trace: {args.path} ({events} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
