#!/usr/bin/env python3
"""Compare two run files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): the base median (A), the new
median (B), their ratio, the run-to-run spread, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the spread (interquartile range over the median, the
  wider of the two files) exceeds the bound, so neither "unchanged" nor
  "regressed" can be claimed — unless every run of B is better than
  every run of A, which reads ``ok``;
* ``ok``         — otherwise.

A file holds one run per ``--out`` invocation; append several (ten is the
contract's number) for the spread to mean anything.  ``failed_share`` is
compared absolutely: any failed operation in B that A did not have is a
regression.  Exits 1 when a row regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from common import load_contract


def load_values(path: Path) -> Tuple[Dict[Tuple[str, str], List[float]],
                                     Dict[str, List[float]]]:
    """``{(workload, metric): values}`` and ``{workload: failed shares}``
    over the untraced runs of a file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    failed: Dict[str, List[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        if run["meta"].get("trace"):
            continue
        for workload, record in run["workloads"].items():
            failed.setdefault(workload, []).append(
                record["failed"] / max(1, record["attempted"]))
            for name, row in record["metrics"].items():
                values.setdefault((workload, name), []).append(row["value"])
    return values, failed


def spread(values: List[float]) -> float:
    """Interquartile range over the median (0 with fewer than 2 runs)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if len(values) < 4:
        return (max(values) - min(values)) / middle if middle else 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / middle if middle else 0.0


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> Tuple[float, float, str]:
    """``(ratio new/base, spread, verdict)`` for one metric."""
    base_mid = statistics.median(base)
    new_mid = statistics.median(new)
    ratio = new_mid / base_mid if base_mid else float("inf")
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    wide = max(spread(base), spread(new))
    if better == "lower":
        all_better = max(new) < min(base)
        all_worse = min(new) > max(base)
    else:
        all_better = min(new) > max(base)
        all_worse = max(new) < min(base)
    if worse_by > bound:
        word = "regressed" if (wide <= bound or all_worse) else "unresolved"
    else:
        word = "ok" if (wide <= bound or all_better) else "unresolved"
    return ratio, wide, word


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    contract = load_contract()
    base_values, base_failed = load_values(Path(argv[0]))
    new_values, new_failed = load_values(Path(argv[1]))
    print(f"{'workload':<19} {'metric':<18} {'base':>12} {'new':>12} "
          f"{'ratio':>7} {'spread':>7} {'bound':>6}  verdict (runs)")
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    for workload in [w["name"] for w in contract["workloads"]]:
        for spec in contract["end_to_end"]:
            key = (workload, spec["name"])
            if key not in base_values or key not in new_values:
                continue
            ratio, wide, word = verdict(base_values[key], new_values[key],
                                        spec["better"], spec["bound"])
            counts[word] += 1
            print(f"{workload:<19} {spec['name']:<18} "
                  f"{statistics.median(base_values[key]):>12.4f} "
                  f"{statistics.median(new_values[key]):>12.4f} "
                  f"{ratio:>7.3f} {wide:>6.1%} {spec['bound']:>6.0%}  "
                  f"{word} ({len(base_values[key])}/{len(new_values[key])})")
        if workload in base_failed and workload in new_failed:
            base_share = max(base_failed[workload])
            new_share = max(new_failed[workload])
            word = "regressed" if new_share > base_share else "ok"
            counts[word] += 1
            print(f"{workload:<19} {'failed_share':<18} {base_share:>12.4f} "
                  f"{new_share:>12.4f} {'':>7} {'':>7} {'0':>6}  {word}")
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
