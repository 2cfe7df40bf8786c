"""Shared pieces of the wall-clock benchmark: paths, statistics, result type.

Everything here is stdlib-only and imports nothing from ``repro``; the
workload modules put ``src/`` on ``sys.path`` themselves (see
:func:`use_source_tree`) so a directory without the program fails fast.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
CONTRACT_PATH = REPO_ROOT / "BENCHMARK.json"


def load_contract() -> dict:
    """``BENCHMARK.json``: the one list of workload and metric names."""
    return json.loads(CONTRACT_PATH.read_text())


def use_source_tree() -> None:
    """Put ``src/`` first on ``sys.path``; exit 2 when the program is absent."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def build_program() -> None:
    """Byte-compile ``src/`` so the first run in a fresh checkout does not
    pay compilation inside a timed boot (a stat pass when up to date)."""
    import compileall

    compileall.compile_dir(str(SRC_DIR), quiet=2, workers=1)


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------

median = statistics.median


def mid(values: Sequence[float]) -> float:
    """Interquartile mean: the mean of the middle half of the samples.

    Reported in place of the median for latencies.  At HEAD the keep-alive
    stall quantizes turn latency to the kernel's 4 ms timer tick (44 or
    48 ms), so a plain median flips by 8 % between runs that differ by a
    few turns; the interquartile mean moves smoothly with the mix and
    equals the median for any distribution without such steps.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(values: Sequence[float]) -> float:
    """Mean of the slowest tenth of the samples once the slowest fiftieth
    is set aside: the band from the 88th to the 98th percentile.

    With ~215 turns that is 21 samples below the 4 slowest.  Those are set
    aside because one 130 ms hiccup among 215 turns moves the mean of the
    slowest tenth by 5 %, and a single percentile would sit on one
    quantization step or the other (see :func:`mid`).  The band never
    holds fewer than five samples (all, when there are fewer): the ~20
    units of a library run give their slowest quarter, because the mean
    of two units repeats no better than a maximum does.
    """
    ordered = sorted(values)
    aside = len(ordered) // 50
    band = max(5, len(ordered) // 10)
    return statistics.fmean(ordered[-(aside + band):len(ordered) - aside])


def slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``ys`` against ``xs`` (0 for < 2 points)."""
    if len(xs) < 2:
        return 0.0
    mean_x = statistics.fmean(xs)
    mean_y = statistics.fmean(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    if spread == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


#: Steps each of the probe's two threads runs.
PROBE_STEPS = 500_000
#: The probe's wall on the reference machine, which this defines (an
#: undisturbed core of the sandbox's 2.1 GHz Xeon takes about 0.045 s).
REFERENCE_PROBE_S = 0.050


def _spin(steps: int) -> None:
    acc = 0
    for i in range(steps):
        acc = (acc * 31 + i) % 1_000_003


def probe_s() -> float:
    """Wall of a fixed pure-Python loop run on two threads at once.

    It touches no program code.  Two threads, because that is how the
    program meets the machine: the sharded executor's threads take turns
    under the GIL on both cores, and the scheduler moves a sequential run
    between them, so the probe has to see the speed of both.
    """
    threads = [threading.Thread(target=_spin, args=(PROBE_STEPS,))
               for _ in range(2)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def calibration_s(rounds: int = 5) -> float:
    """Median probe wall, recorded with every run so walls from different
    machines can be normalized (ROADMAP item 1)."""
    return median([probe_s() for _ in range(rounds)])


def machine_speed(*probes: float) -> float:
    """Speed of this machine while ``probes`` were taken, as a multiple of
    the reference machine's: multiply a wall by it to get the wall the
    reference machine would have shown.

    The sandbox's cores flip between two speeds about 25 % apart and stay
    in one for seconds to a minute, so a CPU-bound wall repeats no better
    than +-12 % however long the run.  The library workloads therefore put
    a probe on either side of every timed unit and report scaled walls,
    which repeat to about 3 % (see ``bench/README.md``).
    """
    return REFERENCE_PROBE_S * len(probes) / sum(probes)


# ----------------------------------------------------------------------
# Run metadata and scratch space.
# ----------------------------------------------------------------------

def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_meta(seed: int) -> dict:
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


@contextmanager
def scratch_root(label: str) -> Iterator[Path]:
    """A temp directory under ``bench/out/``, removed on every exit path.

    The benchmark writes nowhere else: server roots, corpora, registries
    and telemetry logs all live below the yielded path.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"tmp-{label}-", dir=OUT_DIR))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def tree_bytes(root: Path) -> int:
    if not root.is_dir():
        return 0
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# What a workload hands back.
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """Metrics plus the fail-closed operation count of one workload run.

    ``attempted`` counts every operation whose output was checked (HTTP
    requests, ``Execute`` iterations, end-of-run invariants); a failed
    check is recorded with :meth:`fail` and makes the run incorrect.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, n: int = 1) -> None:
        self.metrics[name] = float(value)
        self.samples[name] = int(n)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what, counted=True)
        return ok

    def fail(self, what: str, counted: bool = False) -> None:
        if not counted:
            self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
