#!/usr/bin/env python
"""Cross-commit golden pin for the execution engine.

The equivalence tests only say "the five executors agree with each
other"; a refactor touching all five at once can satisfy that while
drifting.  This script pins each executor against *itself at an earlier
commit*: for every executor name x worker count x batch size x shard
degree (where legal) over the plan shapes of
``tests/test_execution_pipeline.py`` / ``tests/test_execution_scale.py``
it digests (sha256) the output records, ``stats.to_dict()``, the metrics
snapshot, the exported trace, and the provenance payload.

``tests/data/execution_golden.json`` was generated by this script at
commit 8721d11 (before the one-core refactor) and is asserted by
``tests/test_execution_golden.py``.  Regenerate it only for a change that
*intends* to move one of the pinned payloads, and say so in the commit:

    PYTHONPATH=src python scripts/make_execution_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "data" / "execution_golden.json"

sys.path.insert(0, str(ROOT / "tests"))

NAMES = ("sequential", "parallel", "pipelined", "sharded", "async")
SCALE_OUT = ("sharded", "async")
WORKERS = (1, 4)
BATCHES = (1, 8)
SHARDS = (2, 4)


def shape_aggregate(source):
    """A non-grouped aggregate: the plain blocking barrier."""
    from repro.core.dataset import Dataset

    return Dataset(source).filter("about colorectal cancer").count()


def shape_semantic_join(source):
    """A semantic (LLM) join: shard-safe, so it runs — and is closed,
    flushing its unmatched-right bookkeeping — inside the scale-out
    executors' prefix rather than post-gather like the UDF join."""
    from repro.core.builtin_schemas import TextFile
    from repro.core.dataset import Dataset
    from repro.core.sources import MemorySource

    right = Dataset(MemorySource(
        ["Team alpha studies colorectal cancer.",
         "Team beta studies gardening."],
        dataset_id="golden-join-right", schema=TextFile,
    ))
    return Dataset(source).join(right, "The record is about the team's topic")


def shapes():
    """name -> Dataset builder: streaming filter+convert, early-stop
    limit, blocking barriers (aggregate, sort, retrieve), join flushes
    (post-gather UDF join, in-prefix semantic join), and the
    decomposable group-by."""
    import test_execution_pipeline as pipe
    import test_execution_scale as scale

    return {
        "filter_convert": pipe.shape_filter_convert,
        "limit_early": pipe.shape_limit_early,
        "aggregate": shape_aggregate,
        "groupby": pipe.shape_groupby,
        "sort_limit": pipe.shape_sort_limit,
        "retrieve": pipe.shape_retrieve,
        "join": scale.shape_join,
        "semantic_join": shape_semantic_join,
    }


def grid():
    """Every (name, workers, batch, shards) the pin covers."""
    for name in NAMES:
        for workers in WORKERS:
            for batch in BATCHES:
                for shards in (SHARDS if name in SCALE_OUT else (None,)):
                    yield name, workers, batch, shards


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_run(shape_name, build, name, workers, batch, shards):
    """Run one configuration through ``Execute``; digest what it reports."""
    import repro as pz
    from repro.obs.export import to_plain_json
    from test_execution_pipeline import make_source

    source = make_source(dataset_id=f"golden-{shape_name}")
    records, stats = pz.Execute(
        build(source), policy=pz.MaxQuality(), executor=name,
        max_workers=workers, batch_size=batch, shards=shards,
        trace=True, provenance=True,
    )
    return {
        "records": _digest([record.to_dict() for record in records]),
        "stats": _digest(stats.to_dict()),
        "metrics": _digest(stats.metrics),
        "trace": _digest(to_plain_json(stats.trace)),
        "provenance": _digest(stats.provenance.to_dict()),
    }


def compute():
    golden = {}
    for shape_name, build in shapes().items():
        for name, workers, batch, shards in grid():
            key = f"{shape_name}/{name}/w{workers}/b{batch}/s{shards or 0}"
            golden[key] = digest_run(
                shape_name, build, name, workers, batch, shards
            )
    return golden


def main() -> int:
    golden = compute()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden)} configurations to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
