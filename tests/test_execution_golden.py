"""Cross-commit golden pin: every executor against itself at 8721d11.

``tests/data/execution_golden.json`` holds sha256 digests of records,
``stats.to_dict()``, metrics snapshot, exported trace and provenance
payload for each executor name x workers x batch size x shard degree over
eight plan shapes, generated by ``scripts/make_execution_golden.py`` *before*
the executors were collapsed onto one core.  The equivalence grids say the
five schedules agree with each other; this says none of them moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "make_execution_golden.py")
_spec = importlib.util.spec_from_file_location("make_execution_golden",
                                               _SCRIPT)
golden_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_script)

GOLDEN = json.loads(golden_script.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_the_whole_grid():
    expected = {
        f"{shape}/{name}/w{workers}/b{batch}/s{shards or 0}"
        for shape in golden_script.shapes()
        for name, workers, batch, shards in golden_script.grid()
    }
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("shape_name", sorted(golden_script.shapes()))
def test_digests_match_parent_commit(shape_name):
    build = golden_script.shapes()[shape_name]
    drifted = []
    for name, workers, batch, shards in golden_script.grid():
        key = f"{shape_name}/{name}/w{workers}/b{batch}/s{shards or 0}"
        observed = golden_script.digest_run(
            shape_name, build, name, workers, batch, shards
        )
        drifted.extend(
            f"{key}:{field}" for field, digest in observed.items()
            if GOLDEN[key][field] != digest
        )
    assert not drifted, f"payloads moved since the golden commit: {drifted}"


#: The configurations the columnar round trip covers: (executor, workers,
#: batch size, shards).
ROUND_TRIP = (("sequential", 1, 1, None), ("pipelined", 4, 8, None),
              ("sharded", 1, 8, 4))


@pytest.mark.parametrize("shape_name", sorted(golden_script.shapes()))
def test_columns_round_trip_through_the_registry(shape_name, tmp_path):
    """A run's graph and trace, saved as columns and loaded back, render
    the finalized rows and answer why / why-not as the in-memory graph."""
    import repro as pz
    from repro.obs.columns import plain_trace
    from repro.obs.export import to_plain_json
    from repro.obs.registry import RunRegistry
    from test_execution_pipeline import make_source

    build = golden_script.shapes()[shape_name]
    registry = RunRegistry(tmp_path / "runs")
    for name, workers, batch, shards in ROUND_TRIP:
        where = f"{shape_name}/{name}/w{workers}/b{batch}/s{shards or 0}"
        records, stats = pz.Execute(
            build(make_source(dataset_id=f"golden-{shape_name}")),
            policy=pz.MaxQuality(), executor=name, max_workers=workers,
            batch_size=batch, shards=shards, trace=True, provenance=True,
        )
        graph = stats.provenance
        loaded = registry.load(registry.record(records, stats).run_id)
        assert loaded.graph.to_dict() == graph.to_dict(), where
        assert loaded.graph.signature() == graph.signature(), where
        assert plain_trace(loaded.trace) == to_plain_json(
            stats.trace, metrics=stats.metrics), where
        for node_id in range(1, len(graph) + 1):
            assert loaded.graph.why(node_id) == graph.why(node_id), where
        sources = {node["source_id"] for node in graph.roots()}
        for source in sorted(sources) + ["-1", "no such document"]:
            assert loaded.graph.why_not(source) == graph.why_not(source), (
                where, source)
