#!/usr/bin/env python
"""Regenerate every experiment's measured numbers.

Runs the ``experiments/`` suite with ``--benchmark-json`` and prints each
experiment's reproduced quantities (the ``extra_info`` each bench attaches)
— the raw material behind EXPERIMENTS.md.

Usage:  python scripts/collect_results.py [pytest-args...]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    json_path = Path(tempfile.mkdtemp()) / "bench.json"
    exit_code = pytest.main([
        str(REPO_ROOT / "experiments"),
        "--benchmark-only",
        f"--benchmark-json={json_path}",
        "-q",
        *argv,
    ])
    # pytest-benchmark creates the file up front: a run that exits before
    # any bench (--help, a collection error) leaves it empty, not missing.
    if not json_path.exists() or not json_path.stat().st_size:
        print("no benchmark JSON produced", file=sys.stderr)
        return exit_code or 1

    payload = json.loads(json_path.read_text())
    print("\n" + "=" * 72)
    print("REPRODUCED EXPERIMENT QUANTITIES")
    print("=" * 72)
    for bench in sorted(payload["benchmarks"], key=lambda b: b["name"]):
        extra = bench.get("extra_info") or {}
        if not extra:
            continue
        print(f"\n--- {bench['name']} ---")
        for key, value in extra.items():
            rendered = json.dumps(value, indent=2, default=str)
            if "\n" in rendered:
                print(f"{key}:")
                for line in rendered.splitlines():
                    print(f"  {line}")
            else:
                print(f"{key}: {rendered}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
