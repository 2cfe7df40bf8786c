"""The tracing determinism contract.

Three promises, pinned across executors, worker counts, and batch sizes:

1. **Identical traces.** The pipelined executor's span tree — ids,
   ordering, lanes, start/end times — is byte-identical (via
   ``Trace.signature()``) run to run and across worker counts, despite
   real thread racing.
2. **Zero observer effect.** A traced run returns byte-identical records
   and stats to an untraced run, and adds zero LLM calls.
3. **Reconciliation.** Operator span durations sum to the per-operator
   busy times ``OperatorStats`` reports, within float rounding.
"""

import sys

import pytest

from repro.obs.trace import SpanKind

sys.path.insert(0, "tests")
from test_execution_pipeline import (
    chosen_plan,
    make_source,
    run_fingerprint,
    run_plan,
    shape_filter_convert,
)


def run_traced(plan, kind, workers=1, batch=1):
    records, stats, context = run_plan(plan, kind, workers, batch,
                                       traced=True)
    return records, stats, context.tracer.finish()


@pytest.fixture(scope="module")
def plan():
    source = make_source(8, "obs-det")
    return chosen_plan(shape_filter_convert(source), source)


class TestTraceIdentity:
    def test_pipelined_signature_identical_across_runs(self, plan):
        signatures = {
            run_traced(plan, "pipelined", workers=4)[2].signature()
            for _ in range(3)
        }
        assert len(signatures) == 1

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_pipelined_signature_identical_across_worker_counts(
            self, plan, workers):
        # Lane numbers differ by worker count, but the per-operator span
        # durations must not: project out (name, op, duration) multisets.
        def op_durations(trace):
            return sorted(
                (s.name, str(s.attributes.get("op")),
                 round(s.duration, 9))
                for s in trace.spans if s.kind == SpanKind.OPERATOR
            )

        base = op_durations(run_traced(plan, "pipelined", workers=1)[2])
        assert op_durations(
            run_traced(plan, "pipelined", workers=workers)[2]) == base

    def test_batched_signature_identical_across_runs(self, plan):
        batched = plan.with_batch_size(2)
        signatures = {
            run_traced(batched, "pipelined", workers=4, batch=2)[2]
            .signature()
            for _ in range(3)
        }
        assert len(signatures) == 1

    def test_sequential_and_parallel_signatures_stable(self, plan):
        for kind in ("sequential", "parallel"):
            first = run_traced(plan, kind, workers=4)[2].signature()
            second = run_traced(plan, kind, workers=4)[2].signature()
            assert first == second

    def test_span_ids_canonical_depth_first(self, plan):
        trace = run_traced(plan, "pipelined", workers=4)[2]
        assert [s.span_id for s in trace.spans] == list(
            range(1, len(trace) + 1))
        seen = {0}
        for span in trace.spans:
            assert span.parent_id in seen  # parents precede children
            seen.add(span.span_id)

    def test_bundles_ordered_by_seq(self, plan):
        trace = run_traced(plan, "pipelined", workers=4)[2]
        for stage in trace.find("pipeline.stage"):
            seqs = [c.attributes["seq"] for c in stage.children
                    if c.name == "pipeline.bundle"]
            assert seqs == sorted(seqs)


class TestZeroObserverEffect:
    @pytest.mark.parametrize("kind,workers,batch", [
        ("sequential", 1, 1),
        ("parallel", 4, 1),
        ("pipelined", 4, 1),
        ("pipelined", 4, 2),
    ])
    def test_traced_run_matches_untraced(self, plan, kind, workers, batch):
        run = plan.with_batch_size(batch) if batch > 1 else plan
        records_u, stats_u, context = run_plan(run, kind, workers=workers,
                                               batch=batch)
        records_t, stats_t, trace = run_traced(run, kind, workers=workers,
                                               batch=batch)
        assert run_fingerprint(records_t, stats_t) == run_fingerprint(
            records_u, stats_u)
        assert len(trace) > 0

    def test_tracing_adds_no_llm_calls(self, plan):
        _, stats_u, _ = run_plan(plan, "pipelined", workers=4)
        _, stats_t, trace = run_traced(plan, "pipelined", workers=4)
        untraced = sum(op.llm_calls for op in stats_u.operator_stats)
        traced = sum(op.llm_calls for op in stats_t.operator_stats)
        assert traced == untraced
        assert len(trace.find("llm.call")) == traced


class TestReconciliation:
    @pytest.mark.parametrize("kind,workers", [
        ("sequential", 1),
        ("parallel", 4),
        ("pipelined", 4),
    ])
    def test_span_durations_sum_to_operator_stats(self, plan, kind,
                                                  workers):
        _, stats, trace = run_traced(plan, kind, workers=workers)
        by_op = {}
        for span in trace.spans:
            if span.kind != SpanKind.OPERATOR:
                continue
            label = span.attributes.get("op", span.name)
            by_op[label] = by_op.get(label, 0.0) + span.duration
        for op in stats.operator_stats:
            assert by_op.get(op.op_label, 0.0) == pytest.approx(
                op.time_seconds, abs=1e-6), op.op_label

    def test_llm_call_spans_cover_ledger(self, plan):
        _, _, trace = run_traced(plan, "pipelined", workers=4)
        for span in trace.find("llm.call"):
            assert span.attributes["model"]
            assert span.attributes["operation"]
            assert span.duration > 0.0

    def test_plan_run_span_matches_elapsed(self, plan):
        _, stats, trace = run_traced(plan, "pipelined", workers=4)
        root = trace.first("plan.run")
        assert root is not None
        assert root.duration == pytest.approx(
            stats.total_time_seconds, abs=1e-6)
