"""Executors: sequential, parallel, early stopping, stats accounting."""

import pytest

from repro.core.builtin_schemas import TextFile
from repro.core.dataset import Dataset
from repro.core.schemas import make_schema
from repro.core.sources import MemorySource
from repro.execution.executors import ParallelExecutor, SequentialExecutor
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.policies import MaxQuality
from repro.physical.context import ExecutionContext

Clinical = make_schema("Clinical", "d", {"name": "n"})


def make_source(n=8, dataset_id="exec-test"):
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
                fields={"name": f"Set-{i}"},
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


class TestSequentialExecutor:
    def test_executes_and_counts(self):
        source = make_source()
        dataset = Dataset(source).filter("about colorectal cancer").convert(
            Clinical
        )
        plan = chosen_plan(dataset, source)
        records, stats = SequentialExecutor().execute(plan)
        assert len(records) == 8
        assert stats.records_out == 8
        assert stats.total_cost_usd > 0
        assert stats.total_time_seconds > 0

    def test_operator_stats_row_per_op(self):
        source = make_source()
        dataset = Dataset(source).filter("about colorectal cancer")
        plan = chosen_plan(dataset, source)
        _, stats = SequentialExecutor().execute(plan)
        assert len(stats.operator_stats) == len(plan.operators)
        filter_stats = stats.operator_stats[1]
        assert filter_stats.records_in == 8
        assert filter_stats.llm_calls == 8

    def test_operator_costs_sum_to_total(self):
        source = make_source()
        dataset = Dataset(source).filter("about colorectal cancer").convert(
            Clinical
        )
        plan = chosen_plan(dataset, source)
        _, stats = SequentialExecutor().execute(plan)
        summed = sum(op.cost_usd for op in stats.operator_stats)
        assert summed == pytest.approx(stats.total_cost_usd)

    def test_operator_times_sum_to_busy_time(self):
        source = make_source()
        dataset = Dataset(source).filter("about colorectal cancer")
        plan = chosen_plan(dataset, source)
        executor = SequentialExecutor()
        _, stats = executor.execute(plan)
        summed = sum(op.time_seconds for op in stats.operator_stats)
        assert summed == pytest.approx(
            executor.context.clock.total_busy, rel=1e-6
        )

    def test_limit_early_stop_saves_llm_calls(self):
        source = make_source(n=10, dataset_id="exec-limit")
        dataset = Dataset(source).filter("about colorectal cancer").limit(2)
        plan = chosen_plan(dataset, source)
        executor = SequentialExecutor()
        records, stats = executor.execute(plan)
        assert len(records) == 2
        filter_stats = stats.operator_stats[1]
        assert filter_stats.llm_calls < 10

    def test_blocking_aggregate(self):
        source = make_source(dataset_id="exec-agg")
        dataset = Dataset(source).count()
        plan = chosen_plan(dataset, source)
        records, stats = SequentialExecutor().execute(plan)
        assert len(records) == 1
        assert records[0].count == 8


class TestParallelExecutor:
    def test_speedup_bounded_by_workers(self):
        source = make_source(dataset_id="exec-par2")
        dataset = Dataset(source).filter("about colorectal cancer")
        plan = chosen_plan(dataset, source)
        seq = SequentialExecutor().execute(plan)[1].total_time_seconds
        par = ParallelExecutor(max_workers=4).execute(plan)[1]
        speedup = seq / par.total_time_seconds
        assert 1.0 < speedup <= 4.5

    def test_context_lane_mismatch_rejected(self):
        context = ExecutionContext(max_workers=4)
        object.__setattr__  # no-op; context is fine
        bad_context = ExecutionContext(max_workers=1)
        bad_context.max_workers = 4  # clock has 1 lane but claims 4 workers
        with pytest.raises(ValueError):
            ParallelExecutor(bad_context)
