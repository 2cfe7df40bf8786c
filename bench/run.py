#!/usr/bin/env python3
"""Wall-clock benchmark driver: six workloads, end to end and layer by layer.

    python3 bench/run.py                       # every workload, one run each
    python3 bench/run.py --workload serve_chat --seed 3 --seconds 12
    python3 bench/run.py --trace               # per-layer metrics + traces
    python3 bench/run.py --smoke               # reduced sizes + name check
    python3 bench/run.py --out bench/out/A.json   # append the run to a file

With ``--workload`` the workload runs in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics of ``BENCHMARK.json`` with ``--trace
0``, the per-layer ones with ``--trace 1``.  Without it every workload runs
in a subprocess of its own.  The exit code is non-zero when any output
check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    OUT_DIR,
    Outcome,
    build_program,
    calibration_s,
    load_contract,
    run_meta,
    use_source_tree,
)

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Outcome:
    """Run one workload in this process."""
    import batch
    import serve

    if trace:
        import layers

        return layers.trace(workload, seed, smoke)
    if workload in serve.SHAPES:
        return serve.run(workload, seed, seconds, smoke)
    return batch.RUNNERS[workload](seed, seconds, smoke)


def record_of(outcome: Outcome, specs: List[dict], trace: bool) -> dict:
    """The run's full record: every contract metric of this mode, by name.

    A per-layer metric the workload did not measure reads 0: the workload
    does no work in that layer (see ``bench/README.md``).
    """
    unknown = sorted(set(outcome.metrics) - {s["name"] for s in specs})
    if unknown:
        outcome.fail(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in outcome.metrics and not trace:
            outcome.fail(f"end-to-end metric {name} was not measured")
        metrics[name] = {
            "value": outcome.metrics.get(name, 0.0),
            "unit": spec["unit"],
            "n": outcome.samples.get(name, 0),
        }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "measured": sorted(outcome.metrics),
        "notes": outcome.notes,
    }


def print_record(workload: str, record: dict) -> None:
    for name, row in record["metrics"].items():
        if row["n"] == 0 and row["value"] == 0.0:
            continue  # a layer this workload does not cross
        print(f"  {workload:<19} {name:<44} {row['value']:>14.4f} "
              f"{row['unit']:<6} n={row['n']}")
    for key, value in record["notes"].items():
        print(f"  {workload:<19} note {key} = {str(value)[:100]}")
    for failure in record["failures"]:
        print(f"  {workload:<19} FAILED CHECK: {failure}")
    print(f"  {workload:<19} attempted={record['attempted']} "
          f"failed={record['failed']} correct={record['correct']}")


def append_run(path: Path, run: dict) -> None:
    """Append ``run`` to the ``runs`` list of ``path`` (created if absent)."""
    runs = []
    if path.is_file():
        runs = json.loads(path.read_text()).get("runs", [])
    runs.append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def run_one(args, contract: dict) -> int:
    """``--workload`` mode: measure here, end with the one-line result."""
    use_source_tree()
    build_program()
    trace = bool(args.trace)
    specs = contract["per_layer" if trace else "end_to_end"]
    calibration = calibration_s()
    outcome = measure(args.workload, args.seed, args.seconds, trace,
                      args.smoke)
    if trace:
        outcome.put("bench.calibration_s", calibration, 5)
    record = record_of(outcome, specs, trace)
    print(f"{args.workload}: seed={args.seed} seconds={args.seconds} "
          f"trace={int(trace)} calibration_s={calibration:.4f}")
    print_record(args.workload, record)
    if args.out:
        meta = run_meta(args.seed)
        meta.update(seconds=args.seconds, trace=int(trace),
                    calibration_s=calibration)
        append_run(Path(args.out),
                   {"meta": meta, "workloads": {args.workload: record}})
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in record["metrics"].items()},
    }))
    return 0 if record["correct"] else 1


def spawn(workload: str, seed: int, seconds: float, trace: int,
          smoke: bool) -> dict:
    """One workload in its own subprocess; its full record plus output."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"run-{os.getpid()}-{workload}-{trace}.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(detail)]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, capture_output=True, text=True)
        run = None
        if detail.is_file():  # absent: the child died before reporting
            run = json.loads(detail.read_text())["runs"][-1]
    finally:
        detail.unlink(missing_ok=True)
    return {"code": done.returncode, "stdout": done.stdout,
            "stderr": done.stderr, "run": run}


def run_all(args, contract: dict) -> int:
    """Every workload (or the smoke set), each in a subprocess."""
    names = [w["name"] for w in contract["workloads"]]
    modes = [0, 1] if args.smoke else [int(bool(args.trace))]
    jobs = [(name, mode) for mode in modes for name in names]
    started = time.perf_counter()
    # Smoke only checks outputs and names, so two may share the machine;
    # measured runs never overlap.
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        results = list(pool.map(
            lambda job: spawn(job[0], args.seed, args.seconds, job[1],
                              args.smoke), jobs))
    merged: Dict[int, dict] = {}
    failed = []
    for (name, mode), result in zip(jobs, results):
        lines = result["stdout"].rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))  # the last line is the child's JSON
        if result["code"] != 0 or result["run"] is None:
            failed.append(f"{name} (trace={mode})")
            print(result["stderr"], file=sys.stderr)
            continue
        run = merged.setdefault(
            mode, {"meta": result["run"]["meta"], "workloads": {}})
        run["workloads"].update(result["run"]["workloads"])
    if args.out:
        for run in merged.values():
            append_run(Path(args.out), run)
    elapsed = time.perf_counter() - started
    if args.smoke:
        failed.extend(name_problems(contract, merged))
        print(f"smoke: {len(jobs)} runs in {elapsed:.1f} s")
        if elapsed > 30:
            failed.append(f"smoke took {elapsed:.1f} s (> 30 s)")
    for problem in failed:
        print(f"FAILED: {problem}")
    return 1 if failed else 0


def name_problems(contract: dict, merged: Dict[int, dict]) -> List[str]:
    """Names the driver emits must equal ``BENCHMARK.json``'s exactly."""
    problems = []
    wanted = {0: {s["name"] for s in contract["end_to_end"]},
              1: {s["name"] for s in contract["per_layer"]}}
    workloads = {w["name"] for w in contract["workloads"]}
    for name in workloads | wanted[0] | wanted[1]:
        if not NAME_RE.match(name) or len(name) > 64:
            problems.append(f"bad name {name!r}")
    for mode, run in merged.items():
        if set(run["workloads"]) != workloads:
            problems.append(f"trace={mode}: workloads "
                            f"{sorted(set(run['workloads']) ^ workloads)}")
        measured = set()
        for name, record in run["workloads"].items():
            measured.update(record["measured"])
            if mode == 0 and set(record["measured"]) != wanted[0]:
                problems.append(f"{name}: end-to-end names differ: "
                                f"{sorted(set(record['measured']) ^ wanted[0])}")
        if measured != wanted[mode]:
            problems.append(f"trace={mode}: names differ from "
                            f"BENCHMARK.json: {sorted(measured ^ wanted[mode])}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=[0, 1],
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--out", default=None,
                        help="append this run's full record to a JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at reduced size, both modes, "
                             "plus the metric-name check")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(contract["run_seconds"])
    # So a terminated run still stops its server and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload:
        return run_one(args, contract)
    use_source_tree()
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
