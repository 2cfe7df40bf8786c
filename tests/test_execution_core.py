"""The one execution core: behaviour every schedule must share.

* the cooperative quota checkpoint is polled by every executor name, and
  an abort leaves the same partial ledger on every name;
* every schedule runs on the calling thread and starts no thread;
* an executor instance never keeps one plan's optimizer stamps for the
  next plan;
* ``ExecutionOptions`` is the only place the four settings are validated;
* no schedule builds or tokenizes a whole prompt: a document is counted
  once, whichever executor name runs the plan.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.execution import (
    AsyncExecutor,
    Execute,
    ExecutionOptions,
    PipelinedExecutor,
    SequentialExecutor,
    ShardedExecutor,
)
from repro.llm import prompts
from repro.llm.memo import clear_memos, memo_stats
from repro.llm.usage import BudgetMeter, QuotaExceededError
from repro.optimizer.policies import MaxQuality
from repro.obs.trace import Tracer
from repro.physical.context import ExecutionContext
from repro.physical.options import EXECUTORS, SCALE_OUT_EXECUTORS

sys.path.insert(0, "tests")
from test_execution_pipeline import (  # noqa: E402
    chosen_plan,
    make_executor,
    make_source,
    shape_filter_convert,
    shape_groupby,
)
from test_execution_scale import shape_join  # noqa: E402


# ----------------------------------------------------------------------
# The quota checkpoint lives in the chain runner, so every schedule polls.
# ----------------------------------------------------------------------

class CheckpointOnlyBudget(BudgetMeter):
    """Records every charge but never aborts from one, so the only thing
    that can stop a run is the cooperative checkpoint."""

    def charge(self, usage):
        try:
            super().charge(usage)
        except QuotaExceededError:
            pass


class TestQuotaCheckpointOnEverySchedule:
    DOCS = 40
    EXHAUST_AT = 30

    def aborted_ledger(self, name, plan):
        """Exhaust the budget from outside after source record
        ``EXHAUST_AT``; returns the partial ledger's length."""
        # A cap this run alone never reaches ...
        budget = CheckpointOnlyBudget(max_cost_usd=1000.0)

        def another_session_spends_it(event):
            # ... breached by "a concurrent session of the same tenant".
            if (event["type"] == "record_processed"
                    and event["index"] == self.EXHAUST_AT):
                budget.charge_totals(cost_usd=2000.0, tokens=0)

        context = ExecutionContext(max_workers=4, budget=budget)
        executor = make_executor(name, context,
                                 on_event=another_session_spends_it)
        with pytest.raises(QuotaExceededError, match="checkpoint"):
            executor.execute(plan)
        # The partial ledger survives the abort and agrees with the meter.
        assert budget.calls == len(context.ledger)
        return len(context.ledger)

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_budget_exhausted_from_outside_aborts_midrun(self, name):
        source = make_source(n=self.DOCS, dataset_id=f"core-quota-{name}")
        plan = chosen_plan(shape_filter_convert(source), source)
        _, full = SequentialExecutor().execute(plan)
        full_calls = sum(op.llm_calls for op in full.operator_stats)
        sequential = self.aborted_ledger("sequential", plan)
        assert 0 < sequential < full_calls
        # Every name stops at the sequential run's call, run after run.
        assert [self.aborted_ledger(name, plan) for _ in range(3)] == [
            sequential] * 3

    @pytest.mark.parametrize("name,workers", [
        ("sequential", 1), ("parallel", 4)])
    def test_budget_breached_mid_splice_aborts_at_the_cold_runs_call(
            self, name, workers):
        """An incremental re-run that serves documents from the base run's
        journeys still charges every call: the cap is breached by the same
        call as in a cold run, which leaves the same partial spend."""
        import repro as pz
        from repro.obs.registry import RunSnapshot

        source = make_source(n=self.DOCS, dataset_id=f"core-splice-{name}")
        flags = dict(policy="quality", executor=name, max_workers=workers)
        records, stats = pz.Execute(
            shape_filter_convert(source), capture_calls=True, **flags)
        base = RunSnapshot.from_execution("base", records, stats)
        cap = stats.total_cost_usd * 0.4

        def aborted(**kwargs):
            budget = BudgetMeter(max_cost_usd=cap)
            with pytest.raises(QuotaExceededError, match="charge"):
                pz.Execute(shape_filter_convert(source), budget=budget,
                           **flags, **kwargs)
            return (budget.calls, budget.spent_cost_usd,
                    budget.spent_tokens)

        cold = aborted()
        assert 0 < cold[0] < sum(
            op.llm_calls for op in stats.plan_stats.operator_stats)
        # Nothing changed, so every document up to the breach is spliced.
        assert aborted(incremental=True, base_run=base) == cold
        # With headroom the same re-run finishes, spliced throughout.
        _, rerun = pz.Execute(
            shape_filter_convert(source), incremental=True, base_run=base,
            budget=BudgetMeter(max_cost_usd=stats.total_cost_usd), **flags)
        assert rerun.incremental.spliced_docs == self.DOCS
        assert rerun.to_dict() == stats.to_dict()

    def test_cap_breached_by_a_charge_stops_async_at_the_sequential_call(
            self):
        """The async schedule has no error plumbing of its own: a breach
        raises out of its loop as out of the inline schedule, after the
        same call, leaving the same partial spend."""
        source = make_source(n=self.DOCS, dataset_id="core-quota-charge")
        _, cold = Execute(shape_filter_convert(source), policy="quality")

        def aborted(**flags):
            budget = BudgetMeter(max_cost_usd=0.4 * cold.total_cost_usd)
            with pytest.raises(QuotaExceededError, match="charge"):
                Execute(shape_filter_convert(source), policy="quality",
                        budget=budget, **flags)
            return budget.calls, round(budget.spent_cost_usd, 6)

        assert (aborted(executor="async", shards=4)
                == aborted(executor="sequential") == (49, 0.016492))

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_untouched_budget_lets_the_run_finish(self, name):
        source = make_source(n=6, dataset_id=f"core-quota-ok-{name}")
        plan = chosen_plan(shape_groupby(source), source)
        context = ExecutionContext(
            max_workers=4, budget=BudgetMeter(max_cost_usd=1000.0)
        )
        records, _ = make_executor(name, context).execute(plan)
        assert records


# ----------------------------------------------------------------------
# Every schedule is a loop on the calling thread.
# ----------------------------------------------------------------------

class TestNoEngineThread:
    @pytest.mark.parametrize("shape", [
        shape_filter_convert, shape_groupby, shape_join,
    ])
    @pytest.mark.parametrize("name", EXECUTORS)
    def test_events_arrive_on_the_caller_and_no_thread_starts(
            self, name, shape):
        source = make_source(
            n=16, dataset_id=f"core-thread-{name}-{shape.__name__}")
        plan = chosen_plan(shape(source), source)
        caller = threading.current_thread()
        threads_before = threading.active_count()
        seen = []

        def on_event(event):
            assert threading.current_thread() is caller
            assert threading.active_count() == threads_before
            seen.append(event["type"])

        # Each name at 4 workers (lanes, shards or fan-out) and batch 8.
        executor = make_executor(name, ExecutionContext(max_workers=4),
                                 4, 8, on_event)
        records, _ = executor.execute(plan)
        assert records
        assert seen.count("record_processed") == 16
        assert threading.active_count() == threads_before


# ----------------------------------------------------------------------
# Plan stamps are resolved per call, never stored on the executor.
# ----------------------------------------------------------------------

def plan_run_attributes(tracer):
    return [
        dict(span.attributes) for span in tracer.finish().roots
        if span.name == "plan.run"
    ]


class TestExecutorReuseAcrossPlans:
    def test_pipelined_batch_stamp_does_not_stick(self):
        source = make_source(dataset_id="core-reuse-pipe")
        plan = chosen_plan(shape_filter_convert(source), source)
        tracer = Tracer()
        executor = PipelinedExecutor(
            ExecutionContext(max_workers=2, tracer=tracer)
        )
        executor.execute(plan.with_batch_size(8))
        executor.execute(plan)  # unstamped: per-record calls again
        executor.execute(plan.with_batch_size(4))
        assert [a["batch_size"] for a in plan_run_attributes(tracer)] == [
            8, 1, 4,
        ]
        assert executor.batch_size == 1

    @pytest.mark.parametrize("name", SCALE_OUT_EXECUTORS)
    def test_scale_out_degree_and_batch_stamps_do_not_stick(self, name):
        source = make_source(dataset_id=f"core-reuse-{name}")
        plan = chosen_plan(shape_filter_convert(source), source)
        tracer = Tracer()
        executor = make_executor(
            name, ExecutionContext(max_workers=4, tracer=tracer)
        )
        executor.execute(plan.with_shards(4).with_batch_size(8))
        executor.execute(plan.with_shards(2))
        executor.execute(plan)  # unstamped: the documented fallback of 2
        runs = plan_run_attributes(tracer)
        assert [a["shards"] for a in runs] == [4, 2, 2]
        assert [a["batch_size"] for a in runs] == [8, 1, 1]
        assert executor.shards is None and executor.batch_size == 1

    def test_explicit_settings_beat_the_stamp_every_time(self):
        source = make_source(dataset_id="core-reuse-pinned")
        plan = chosen_plan(shape_filter_convert(source), source)
        tracer = Tracer()
        executor = ShardedExecutor(
            ExecutionContext(max_workers=4, tracer=tracer),
            shards=3, batch_size=2,
        )
        executor.execute(plan.with_shards(4).with_batch_size(8))
        executor.execute(plan)
        runs = plan_run_attributes(tracer)
        assert [(a["shards"], a["batch_size"]) for a in runs] == [
            (3, 2), (3, 2),
        ]


# ----------------------------------------------------------------------
# ExecutionOptions: the four settings, validated in one place.
# ----------------------------------------------------------------------

class TestExecutionOptions:
    def test_defaults_infer_the_executor_from_workers(self):
        assert ExecutionOptions().name == "sequential"
        assert ExecutionOptions(max_workers=4).name == "parallel"
        assert ExecutionOptions("pipelined", 4).name == "pipelined"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExecutionOptions().batch_size = 4

    @pytest.mark.parametrize("kwargs, message", [
        (dict(executor="warp"), "unknown executor"),
        (dict(max_workers=0), "max_workers must be >= 1"),
        (dict(batch_size=0), "batch_size must be >= 1"),
        (dict(executor="sharded", shards=0), "shards must be >= 1"),
        (dict(executor="pipelined", shards=2), "shards only applies"),
        (dict(shards=2), "shards only applies"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExecutionOptions(**kwargs)

    def test_dataclasses_replace_revalidates(self):
        options = ExecutionOptions("sharded", shards=4)
        assert dataclasses.replace(options, shards=2).shards == 2
        with pytest.raises(ValueError, match="shards only applies"):
            dataclasses.replace(options, executor="pipelined")

    def test_normalized_drops_shards_for_single_chain_executors(self):
        assert ExecutionOptions.normalized("pipelined", shards=4).shards \
            is None
        assert ExecutionOptions.normalized(None, shards=4).shards is None
        assert ExecutionOptions.normalized("async", shards=4).shards == 4
        with pytest.raises(ValueError, match="shards must be >= 1"):
            ExecutionOptions.normalized("sharded", shards=0)

    def test_resolved_names_the_executor_and_caps_the_batch(self):
        resolved = ExecutionOptions(max_workers=4, batch_size=8).resolved()
        assert (resolved.executor, resolved.batch_size) == ("parallel", 1)
        for name in ("pipelined",) + SCALE_OUT_EXECUTORS:
            assert ExecutionOptions(name, batch_size=8).resolved() \
                .batch_size == 8

    def test_degree_and_kwargs(self):
        assert ExecutionOptions("sharded").degree == 1
        assert ExecutionOptions("sharded", shards=4).degree == 4
        assert ExecutionOptions("async", 2, 8, 4).kwargs() == {
            "executor": "async", "max_workers": 2, "batch_size": 8,
            "shards": 4,
        }

    @pytest.mark.parametrize("build", [
        lambda: PipelinedExecutor(batch_size=0),
        lambda: ShardedExecutor(shards=0),
        lambda: ShardedExecutor(batch_size=0),
        lambda: AsyncExecutor(fanout=0),
    ])
    def test_executor_constructors_validate_through_it(self, build):
        with pytest.raises(ValueError, match="must be >= 1"):
            build()


# ----------------------------------------------------------------------
# One priced-call path: per-record calls count a prompt by its pieces, as
# bundled calls always did, so the cold tokenizer work of a run is one
# count per document on every schedule.
# ----------------------------------------------------------------------

class TestNoScheduleTokenizesWholePrompts:
    DOCS = 48
    #: Prompt frames (filter and extract prefix/suffix) and the like:
    #: independent of the corpus size.
    CONSTANT = 8

    @staticmethod
    def _kwargs(name):
        return {} if name == "sequential" else {"max_workers": 2}

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_cold_run_counts_each_document_once(self, name):
        source = make_source(n=self.DOCS, dataset_id=f"core-count-{name}")
        clear_memos()
        records, _ = Execute(shape_filter_convert(source),
                             policy=MaxQuality(), executor=name,
                             **self._kwargs(name))
        assert len(records) > self.DOCS // 2
        misses = memo_stats()["count_tokens"]["misses"]
        assert self.DOCS <= misses <= (
            self.DOCS + len(records) + self.CONSTANT)

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_prompt_builders_are_never_called(self, name, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("a whole prompt string was built")

        monkeypatch.setattr(prompts, "build_filter_prompt", built)
        monkeypatch.setattr(prompts, "build_extract_prompt", built)
        source = make_source(n=12, dataset_id=f"core-noprompt-{name}")
        expected, _ = Execute(shape_filter_convert(source),
                              policy=MaxQuality())
        records, _ = Execute(shape_filter_convert(source),
                             policy=MaxQuality(), executor=name,
                             **self._kwargs(name))
        assert [r.to_dict() for r in records] == [
            r.to_dict() for r in expected
        ]
