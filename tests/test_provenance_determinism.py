"""The provenance determinism contract.

Three promises, pinned across executors, worker counts, and batch sizes
(mirroring ``test_obs_determinism.py`` for traces):

1. **Identical graphs.** All three executors produce byte-identical
   serialized provenance graphs (via ``ProvenanceGraph.signature()``)
   for the same plan, at any worker count and batch size, run after run.
2. **Identical explanations.** ``why`` derivation trees and ``why_not``
   fate reports render character-identically regardless of which
   executor produced the graph.
3. **Zero observer effect.** A provenance-recorded run returns
   byte-identical records and stats to an unrecorded run, and adds zero
   LLM calls.
"""

import sys

import pytest

from repro.obs import render_why, render_why_not

sys.path.insert(0, "tests")
from test_execution_pipeline import (
    chosen_plan,
    make_source,
    run_fingerprint,
    run_plan,
    shape_filter_convert,
    shape_groupby,
    shape_limit_early,
    shape_retrieve,
)

# Every executor configuration the contract covers.  Batch sizes only
# apply to the pipelined executor (the others ignore them).
CONFIGS = [
    ("sequential", 1, 1),
    ("parallel", 1, 1),
    ("parallel", 4, 1),
    ("parallel", 8, 1),
    ("pipelined", 1, 1),
    ("pipelined", 4, 1),
    ("pipelined", 8, 1),
    ("pipelined", 4, 4),
    ("pipelined", 8, 4),
]

SHAPES = [
    shape_filter_convert,   # filter_rejected drops, convert fanout
    shape_limit_early,      # limit_cutoff drops
    shape_groupby,          # aggregate_fold drops, N:1 emits
    shape_retrieve,         # retrieve_cutoff drops
]


def run_recorded(plan, kind, workers=1, batch=1):
    records, stats, context = run_plan(plan, kind, workers, batch,
                                       recorded=True)
    return records, stats, context.provenance.finalize(records)


@pytest.fixture(scope="module")
def plans():
    built = {}
    for shape in SHAPES:
        source = make_source(8, f"prov-det-{shape.__name__}")
        built[shape.__name__] = chosen_plan(shape(source), source)
    return built


@pytest.fixture(scope="module")
def baselines(plans):
    """Sequential-executor graphs: the canonical answer per shape."""
    return {
        name: run_recorded(plan, "sequential")[2]
        for name, plan in plans.items()
    }


def batched(plan, batch):
    return plan.with_batch_size(batch) if batch > 1 else plan


class TestGraphIdentity:
    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda fn: fn.__name__.replace("shape_", "")
    )
    @pytest.mark.parametrize("kind,workers,batch", CONFIGS)
    def test_graph_byte_identical_to_sequential(
            self, plans, baselines, shape, kind, workers, batch):
        plan = batched(plans[shape.__name__], batch)
        graph = run_recorded(plan, kind, workers=workers, batch=batch)[2]
        baseline = baselines[shape.__name__]
        assert graph.signature() == baseline.signature()
        assert graph.to_json() == baseline.to_json()

    def test_graph_identical_across_repeated_runs(self, plans):
        plan = plans["shape_filter_convert"]
        signatures = {
            run_recorded(plan, "pipelined", workers=4)[2].signature()
            for _ in range(3)
        }
        assert len(signatures) == 1

    def test_node_ids_consecutive_and_events_ordered_by_op(self, baselines):
        for graph in baselines.values():
            assert [n["id"] for n in graph.nodes] == list(
                range(1, len(graph.nodes) + 1))
            op_indices = [e["op"] for e in graph.events]
            assert op_indices == sorted(op_indices)


class TestExplanationIdentity:
    @pytest.mark.parametrize("kind,workers,batch", CONFIGS)
    def test_why_renders_identically(
            self, plans, baselines, kind, workers, batch):
        name = "shape_filter_convert"
        plan = batched(plans[name], batch)
        graph = run_recorded(plan, kind, workers=workers, batch=batch)[2]
        baseline = baselines[name]
        assert graph.output_ids == baseline.output_ids
        for output_id in graph.output_ids:
            assert render_why(graph.why(output_id)) == render_why(
                baseline.why(output_id))

    @pytest.mark.parametrize("kind,workers,batch", CONFIGS)
    def test_why_not_renders_identically(
            self, plans, baselines, kind, workers, batch):
        # The limit shape both drops (limit_cutoff) and derives, so the
        # fate report exercises every branch of the renderer.
        name = "shape_limit_early"
        plan = batched(plans[name], batch)
        graph = run_recorded(plan, kind, workers=workers, batch=batch)[2]
        baseline = baselines[name]
        source_id = f"prov-det-{name}"
        assert render_why_not(graph.why_not(source_id)) == render_why_not(
            baseline.why_not(source_id))


class TestZeroObserverEffect:
    @pytest.mark.parametrize("kind,workers,batch", [
        ("sequential", 1, 1),
        ("parallel", 4, 1),
        ("pipelined", 4, 1),
        ("pipelined", 4, 4),
    ])
    def test_recorded_run_matches_unrecorded(
            self, plans, kind, workers, batch):
        plan = batched(plans["shape_groupby"], batch)
        records_u, stats_u, _ = run_plan(
            plan, kind, workers=workers, batch=batch)
        records_r, stats_r, graph = run_recorded(
            plan, kind, workers=workers, batch=batch)
        assert run_fingerprint(records_r, stats_r) == run_fingerprint(
            records_u, stats_u)
        assert len(graph.nodes) > 0

    def test_recording_adds_no_llm_calls(self, plans):
        plan = plans["shape_filter_convert"]
        _, stats_u, _ = run_plan(plan, "pipelined", workers=4)
        _, stats_r, _ = run_recorded(plan, "pipelined", workers=4)
        unrecorded = sum(op.llm_calls for op in stats_u.operator_stats)
        recorded = sum(op.llm_calls for op in stats_r.operator_stats)
        assert recorded == unrecorded
