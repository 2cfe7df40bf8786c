"""Pipelined executor: equivalence, determinism, batching, call cache.

The contract under test: the pipelined executor — operator stages on
their own clock lanes, optional batching — produces exactly the records
the sequential executor produces, with the same per-operator
``records_in``/``records_out``/``llm_calls`` accounting, for every plan
shape and any worker count, run after run.  The call cache, which is
shared across runs, is checked under interleaved callers.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.builtin_schemas import TextFile
from repro.core.dataset import Dataset
from repro.core.schemas import make_schema
from repro.core.sources import MemorySource
from repro.execution import (
    AsyncExecutor,
    Execute,
    ParallelExecutor,
    PipelinedExecutor,
    SequentialExecutor,
    ShardedExecutor,
)
from repro.llm.cache import CallCache
from repro.llm.client import BooleanRequest, SimulatedLLMClient
from repro.llm.clock import VirtualClock
from repro.llm.models import get_model
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.llm.prompts import (
    build_extract_prompt,
    build_filter_prompt,
    extract_prompt_parts,
    filter_prompt_parts,
)
from repro.llm.tokenizer import count_tokens
from repro.llm.usage import UsageLedger
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.trace import Tracer
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.policies import MaxQuality
from repro.physical.context import ExecutionContext

Clinical = make_schema("PipeClinical", "d", {"name": "n", "score": "s"})


def make_source(n=8, dataset_id="pipe-test"):
    docs = []
    for i in range(n):
        text = (
            f"Record {i} about colorectal cancer. "
            f"The Set-{i} dataset is publicly available at "
            f"https://example.org/{i}."
        )
        docs.append(text)
        global_oracle().register(
            text,
            DocumentTruth(
                predicates={"about colorectal cancer": True},
                fields={"name": f"Set-{i}", "score": str(i % 3)},
                difficulty=0.0,
            ),
        )
    return MemorySource(docs, dataset_id=dataset_id, schema=TextFile)


def chosen_plan(dataset, source, **kwargs):
    return (
        Optimizer(MaxQuality(), **kwargs)
        .optimize(dataset.logical_plan(), source)
        .chosen.plan
    )


def make_executor(kind, context, workers=None, batch=1, on_event=None):
    """The ``kind`` schedule over ``context``.  ``workers`` is its worker,
    shard or fan-out count; ``None`` (and ``batch=1``) leave them to the
    context and the plan's stamps."""
    if kind == "sequential":
        return SequentialExecutor(context, on_event=on_event)
    if kind == "parallel":
        workers = workers or context.max_workers
        return ParallelExecutor(context, max_workers=workers,
                                on_event=on_event)
    if kind == "pipelined":
        return PipelinedExecutor(context, max_workers=workers,
                                 batch_size=batch, on_event=on_event)
    if kind == "sharded":
        return ShardedExecutor(context, shards=workers, batch_size=batch,
                               on_event=on_event)
    return AsyncExecutor(context, fanout=workers, batch_size=batch,
                         on_event=on_event)


def run_plan(plan, kind, workers=1, batch=1, cache=None, traced=False,
             recorded=False, models=None, on_event=None):
    """Run ``plan`` on a fresh context; returns records, stats, context."""
    context = ExecutionContext(max_workers=workers, cache=cache,
                               models=models)
    if traced:
        context.tracer = Tracer(clock=context.clock)
    if recorded:
        context.provenance = ProvenanceRecorder()
    executor = make_executor(kind, context, workers, batch, on_event)
    records, stats = executor.execute(plan)
    return records, stats, context


def run_fingerprint(records, stats):
    """Everything that must be interleaving-independent about a run."""
    return (
        [record.to_dict() for record in records],
        [
            (op.records_in, op.records_out, op.llm_calls,
             op.input_tokens, op.output_tokens, round(op.cost_usd, 9))
            for op in stats.operator_stats
        ],
        round(stats.total_cost_usd, 9),
    )


# ----------------------------------------------------------------------
# Plan shapes: streaming, early-stop limit, blocking flush, post-barrier.
# ----------------------------------------------------------------------

def shape_filter_convert(source):
    return (
        Dataset(source).filter("about colorectal cancer").convert(Clinical)
    )


def shape_limit_early(source):
    return (
        Dataset(source)
        .filter("about colorectal cancer")
        .convert(Clinical)
        .limit(3)
    )


def shape_groupby(source):
    return (
        Dataset(source)
        .filter("about colorectal cancer")
        .convert(Clinical)
        .groupby(["score"], [("count", None)])
    )


def shape_sort_limit(source):
    return Dataset(source).convert(Clinical).sort("name").limit(2)


def shape_retrieve(source):
    return (
        Dataset(source)
        .retrieve("colorectal cancer datasets", k=4)
        .convert(Clinical)
    )


SHAPES = [
    shape_filter_convert,
    shape_limit_early,
    shape_groupby,
    shape_sort_limit,
    shape_retrieve,
]


class TestExecutorEquivalence:
    @pytest.mark.parametrize(
        "shape", SHAPES, ids=lambda fn: fn.__name__.replace("shape_", "")
    )
    def test_pipelined_matches_sequential(self, shape):
        source = make_source(dataset_id=f"pipe-eq-{shape.__name__}")
        plan = chosen_plan(shape(source), source)
        baseline = run_fingerprint(*run_plan(plan, "sequential")[:2])
        for workers in (1, 4, 8):
            for batch in (1, 4):
                records, stats, _ = run_plan(
                    plan, "pipelined", workers=workers, batch=batch
                )
                assert run_fingerprint(records, stats) == baseline, (
                    f"workers={workers} batch={batch}"
                )

    def test_repeated_runs_are_deterministic(self):
        source = make_source(dataset_id="pipe-det")
        plan = chosen_plan(shape_filter_convert(source), source)
        outcomes = []
        for _ in range(3):
            records, stats, _ = run_plan(
                plan, "pipelined", workers=4, batch=4
            )
            outcomes.append((
                run_fingerprint(records, stats),
                round(stats.total_time_seconds, 9),
                [round(op.time_seconds, 9)
                 for op in stats.operator_stats],
            ))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_batching_reduces_simulated_time(self):
        source = make_source(dataset_id="pipe-amortize")
        plan = chosen_plan(shape_filter_convert(source), source)
        _, per_record, _ = run_plan(plan, "pipelined", workers=1, batch=1)
        _, batched, _ = run_plan(plan, "pipelined", workers=1, batch=8)
        # Same cost, strictly less simulated wall time: the batch amortizes
        # each model's fixed per-call overhead.
        assert batched.total_cost_usd == pytest.approx(
            per_record.total_cost_usd
        )
        assert batched.total_time_seconds < per_record.total_time_seconds


class TestStatsAttribution:
    @pytest.mark.parametrize("kind,workers,batch", [
        ("sequential", 1, 1),
        ("parallel", 4, 1),
        ("pipelined", 4, 1),
        ("pipelined", 4, 4),
    ])
    def test_op_times_sum_to_clock_busy(self, kind, workers, batch):
        source = make_source(dataset_id=f"pipe-attr-{kind}-{batch}")
        plan = chosen_plan(shape_filter_convert(source), source)
        _, stats, context = run_plan(
            plan, kind, workers=workers, batch=batch
        )
        accounted = sum(op.time_seconds for op in stats.operator_stats)
        assert accounted == pytest.approx(
            context.clock.total_busy, rel=1e-9
        )
        # The scan row carries the residual, so it must be non-negative.
        assert stats.operator_stats[0].time_seconds >= 0


class TestDeepChains:
    def test_long_operator_chain_does_not_recurse(self):
        """The record push loop must be iterative: a 150-op chain would
        blow a recursive depth-first walk at this recursion limit."""
        source = make_source(n=4, dataset_id="pipe-deep")
        dataset = Dataset(source)
        for index in range(150):
            dataset = dataset.filter(
                lambda record, _i=index: True
            )
        plan = chosen_plan(dataset, source, lint=False)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(220)
        try:
            records, stats, _ = run_plan(plan, "sequential")
        finally:
            sys.setrecursionlimit(limit)
        assert len(records) == 4
        assert stats.operator_stats[-1].records_out == 4


class TestThreadSafetyStress:
    def test_call_cache_interleaved_access(self):
        cache = CallCache()
        for call in range(4_000):  # eight interleaved callers
            answer = (call % 8 * 13 + call // 8) % 50
            key = CallCache.make_key("m", "judge", "stress", f"k{answer}")
            hit, value = cache.lookup(key)
            if hit:
                assert value == answer
            else:
                cache.store(key, answer)
        assert len(cache) == 50
        assert (cache.stats.hits, cache.stats.misses) == (3_950, 50)


class TestBatchedClient:
    def _client(self, model="gpt-4o-mini"):
        clock = VirtualClock(lanes=1)
        ledger = UsageLedger()
        return SimulatedLLMClient(
            get_model(model), clock=clock, ledger=ledger,
            oracle=global_oracle(),
        ), clock, ledger

    def _requests(self, n=6):
        requests = []
        for i in range(n):
            text = (
                f"Batch doc {i} about colorectal cancer screening with "
                f"registry follow-up number {i}."
            )
            global_oracle().register(
                text,
                DocumentTruth(
                    predicates={"about cancer": True}, difficulty=0.0
                ),
            )
            requests.append(BooleanRequest(
                predicate="about cancer", document=text, operation="filter",
            ))
        return requests

    def test_batch_matches_per_record_except_overhead(self):
        requests = self._requests()
        client_a, clock_a, ledger_a = self._client()
        singles = [client_a.judge(request) for request in requests]
        client_b, clock_b, ledger_b = self._client()
        batched = client_b.run_batch(requests)

        assert [r.value for r in singles] == [r.value for r in batched]
        assert [r.text for r in singles] == [r.text for r in batched]
        total_a, total_b = ledger_a.total(), ledger_b.total()
        assert total_a.calls == total_b.calls == len(requests)
        assert total_a.input_tokens == total_b.input_tokens
        assert total_a.output_tokens == total_b.output_tokens
        assert total_a.cost_usd == pytest.approx(total_b.cost_usd)
        # Every call after the first saves exactly the model's fixed
        # per-call overhead; nothing else moves.
        overhead = get_model("gpt-4o-mini").overhead_seconds
        saved = (len(requests) - 1) * overhead
        assert clock_a.total_busy - clock_b.total_busy == pytest.approx(saved)

    def test_prompt_parts_tokenize_additively(self):
        document = (
            "A cohort study of colorectal screening outcomes across "
            "twelve registries, with biomarker follow-up analysis."
        )
        prefix, suffix = filter_prompt_parts("about colorectal cancer")
        full = build_filter_prompt("about colorectal cancer", document)
        assert prefix + document + suffix == full
        assert (
            count_tokens(prefix) + count_tokens(document)
            + count_tokens(suffix)
        ) == count_tokens(full)

        fields = {"name": "the dataset name", "url": "the dataset url"}
        prefix, suffix = extract_prompt_parts(
            fields, "clinical datasets", one_to_many=True
        )
        full = build_extract_prompt(
            fields, document, "clinical datasets", one_to_many=True
        )
        assert prefix + document + suffix == full
        assert (
            count_tokens(prefix) + count_tokens(document)
            + count_tokens(suffix)
        ) == count_tokens(full)


class TestExecuteWireThrough:
    def test_execute_pipelined_entry_point(self):
        source = make_source(dataset_id="pipe-entry")
        dataset = shape_filter_convert(source)
        records, sequential = Execute(dataset, policy=MaxQuality())
        piped_records, piped = Execute(
            dataset, policy=MaxQuality(), executor="pipelined",
            max_workers=4, batch_size=4,
        )
        assert [r.to_dict() for r in piped_records] == [
            r.to_dict() for r in records
        ]
        assert sequential.executor == "sequential"
        assert piped.executor == "pipelined"
        assert piped.batch_size == 4
        assert piped.to_dict()["executor"] == "pipelined"
        # Batching + threading shrink the simulated makespan.
        assert (
            piped.plan_stats.total_time_seconds
            < sequential.plan_stats.total_time_seconds
        )

    def test_execute_rejects_unknown_executor(self):
        source = make_source(dataset_id="pipe-entry-bad")
        with pytest.raises(ValueError, match="unknown executor"):
            Execute(Dataset(source), executor="warp-drive")
