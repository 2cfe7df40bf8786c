"""Statistics objects: aggregation and rendering."""

import json

import pytest

from repro.execution.stats import (
    ExecutionStats,
    OperatorStats,
    PlanStats,
    render_summary,
)


@pytest.fixture()
def plan_stats():
    return PlanStats(
        plan_id="abc123",
        plan_describe="Scan -> Filter",
        operator_stats=[
            OperatorStats(
                op_label="MarshalAndScan",
                logical_describe="scan",
                records_in=10, records_out=10,
                time_seconds=1.0, cost_usd=0.0,
            ),
            OperatorStats(
                op_label="LLMFilter[gpt-4o]",
                logical_describe="filter",
                records_in=10, records_out=4,
                time_seconds=30.0, cost_usd=0.12, llm_calls=10,
                input_tokens=5000, output_tokens=10,
            ),
        ],
        total_time_seconds=31.0,
        total_cost_usd=0.12,
        records_out=4,
    )


class TestOperatorStats:
    def test_selectivity(self):
        stats = OperatorStats("op", "l", records_in=10, records_out=4)
        assert stats.selectivity == pytest.approx(0.4)

    def test_selectivity_empty_input(self):
        assert OperatorStats("op", "l").selectivity == 1.0

    def test_to_dict_rounding(self):
        stats = OperatorStats(
            "op", "l", time_seconds=1.23456, cost_usd=0.000123456
        )
        data = stats.to_dict()
        assert data["time_seconds"] == 1.235
        assert data["cost_usd"] == 0.000123


class TestExecutionStats:
    def test_totals_include_optimization(self, plan_stats):
        stats = ExecutionStats(
            plan_stats=plan_stats,
            policy="max-quality",
            plans_considered=120,
            optimization_cost_usd=0.01,
            optimization_time_seconds=5.0,
        )
        assert stats.total_cost_usd == pytest.approx(0.13)
        assert stats.total_time_seconds == pytest.approx(36.0)
        assert stats.records_out == 4

    def test_summary_contains_key_numbers(self, plan_stats):
        stats = ExecutionStats(plan_stats=plan_stats, policy="max-quality")
        summary = stats.summary()
        assert "max-quality" in summary
        assert "LLMFilter[gpt-4o]" in summary
        assert "records produced:  4" in summary
        assert "$0.12" in summary

    def test_to_dict_structure(self, plan_stats):
        stats = ExecutionStats(plan_stats=plan_stats, policy="min-cost",
                               plans_considered=7)
        data = stats.to_dict()
        assert data["policy"] == "min-cost"
        assert data["plans_considered"] == 7
        assert len(data["plan"]["operators"]) == 2


class TestModelUsage:
    def test_model_usage_in_summary_and_dict(self):
        import repro as pz
        from repro.core.builtin_schemas import TextFile
        from repro.core.sources import MemorySource

        source = MemorySource(
            ["doc about colorectal cancer"], dataset_id="mu-test",
            schema=TextFile,
        )
        dataset = pz.Dataset(source).filter("about colorectal cancer")
        _, stats = pz.Execute(dataset, policy=pz.MaxQuality())
        assert stats.plan_stats.model_usage
        row = stats.plan_stats.model_usage[0]
        assert row.model == "gpt-4o"
        assert row.calls == 1
        summary = stats.summary()
        assert "LLM invocations by model:" in summary
        assert "gpt-4o" in summary
        data = stats.to_dict()
        assert data["plan"]["models"][0]["model"] == "gpt-4o"


class TestSummaryFromDisk:
    """``get_execution_stats`` renders a run's persisted ``stats.json``;
    it must read exactly like the live object's summary."""

    def test_reloaded_stats_render_the_live_summary(self, sigmod_demo,
                                                    tmp_path):
        from repro.core.dataset import Dataset
        from repro.execution.execute import Execute
        from repro.obs.registry import RunRegistry

        records, stats = Execute(
            Dataset(source="sigmod-demo").filter(
                "The papers are about colorectal cancer"),
            executor="pipelined", max_workers=2, batch_size=4)
        registry = RunRegistry(str(tmp_path / "runs"))
        run_id = registry.record(records, stats).run_id
        assert render_summary(registry.load(run_id).stats) == \
            stats.summary()

    def test_cache_line_survives_json(self, plan_stats):
        stats = ExecutionStats(plan_stats=plan_stats, policy="max-quality",
                               cache_hits=3, cache_misses=7)
        reloaded = json.loads(json.dumps(stats.to_dict()))
        assert "3 hits / 7 misses" in render_summary(reloaded)
        assert render_summary(reloaded) == stats.summary()
