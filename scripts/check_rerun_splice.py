#!/usr/bin/env python3
"""CI gate: ``repro runs rerun`` must splice, not silently fall back.

Runs the CLI round-trip (record a base, drift the corpus, re-run
incrementally) and exits non-zero unless the printed report shows

* every unchanged document spliced (``documents: N spliced`` with N equal
  to the ``=N unchanged`` of the source delta), and
* ``replayed + fresh`` LLM calls equal to the call count of a cold run
  over the same drifted corpus, made here, whose result fingerprint and
  simulated cost the re-run must match as well.

Counts only — no wall-clock ratio belongs in CI.

    PYTHONPATH=src python scripts/check_rerun_splice.py --docs 120 \
        --runs-dir /tmp/incr-runs
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys

import repro as pz
from repro.cli import main as repro_main
from repro.corpora.scale import (
    SCALE_FIELDS,
    SCALE_PREDICATE,
    mutate_scale_source,
)
from repro.obs.registry import RunRegistry, RunSnapshot

SEED, ADDS, EDITS, DROPS, POLICY = 11, 1, 1, 1, "quality"


def _numbers(pattern: str, text: str):
    match = re.search(pattern, text)
    if match is None:
        sys.exit(f"FAIL: report has no line matching {pattern!r}:\n{text}")
    return [int(group) for group in match.groups()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--docs", type=int, default=120)
    parser.add_argument("--runs-dir", required=True)
    args = parser.parse_args()

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        status = repro_main([
            "runs", "rerun", "--docs", str(args.docs),
            "--runs-dir", args.runs_dir, "--seed", str(SEED),
            "--adds", str(ADDS), "--edits", str(EDITS),
            "--drops", str(DROPS), "--policy", POLICY,
        ])
    report = printed.getvalue()
    print(report, end="")
    if status != 0:
        sys.exit(f"FAIL: 'repro runs rerun' exited {status}")

    (unchanged,) = _numbers(r"=(\d+) unchanged", report)
    spliced, executed = _numbers(
        r"documents:\s+(\d+) spliced / (\d+) executed", report)
    replayed, fresh = _numbers(
        r"LLM calls:\s+(\d+) replayed / (\d+) fresh", report)

    schema = pz.make_schema(
        "ClinicalNote", "Cohort and stage extracted from a clinical note",
        list(SCALE_FIELDS), field_descriptions=list(SCALE_FIELDS.values()))
    drifted = mutate_scale_source(
        args.docs, seed=SEED, adds=ADDS, edits=EDITS, drops=DROPS)
    cold = RunSnapshot.from_execution("cold", *pz.Execute(
        pz.Dataset(drifted).filter(SCALE_PREDICATE).convert(schema),
        policy=POLICY)).meta
    registry = RunRegistry(args.runs_dir)
    rerun = registry.load(registry.latest()).meta

    failures = []
    if spliced != unchanged or executed != ADDS + EDITS:
        failures.append(
            f"{spliced} spliced / {executed} executed documents, expected "
            f"{unchanged} / {ADDS + EDITS}: the re-run fell back to "
            "call-level replay")
    if replayed + fresh != cold["llm_calls"]:
        failures.append(
            f"{replayed} replayed + {fresh} fresh calls, but a cold run "
            f"makes {cold['llm_calls']}")
    for key in ("result_fp", "total_cost_usd", "llm_calls"):
        if rerun[key] != cold[key]:
            failures.append(
                f"re-run {key} {rerun[key]!r} != cold run's {cold[key]!r}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(f"ok: {spliced} documents spliced, {replayed}+{fresh} calls "
              f"= cold run's {cold['llm_calls']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
