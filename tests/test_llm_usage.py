"""Usage records and ledger aggregation."""

import pytest

from repro.llm.usage import LLMUsage, UsageLedger, UsageTotals


def usage(model="m", inp=100, out=10, cost=0.01, latency=1.0, op="filter"):
    return LLMUsage(
        model=model,
        input_tokens=inp,
        output_tokens=out,
        cost_usd=cost,
        latency_seconds=latency,
        operation=op,
    )


class TestUsageTotals:
    def test_add_accumulates_all_fields(self):
        totals = UsageTotals()
        totals.add(usage())
        totals.add(usage(inp=50, out=5, cost=0.02))
        assert totals.calls == 2
        assert totals.input_tokens == 150
        assert totals.output_tokens == 15
        assert totals.cost_usd == pytest.approx(0.03)
        assert totals.total_tokens == 165

    def test_merge(self):
        a, b = UsageTotals(), UsageTotals()
        a.add(usage())
        b.add(usage(cost=0.05))
        a.merge(b)
        assert a.calls == 2
        assert a.cost_usd == pytest.approx(0.06)


class TestUsageLedger:
    def test_empty_ledger_totals(self):
        ledger = UsageLedger()
        assert len(ledger) == 0
        assert ledger.total().cost_usd == 0.0

    def test_record_and_total(self):
        ledger = UsageLedger()
        ledger.record(usage())
        ledger.record(usage(cost=0.04))
        assert len(ledger) == 2
        assert ledger.total().cost_usd == pytest.approx(0.05)

    def test_by_model_groups(self):
        ledger = UsageLedger()
        ledger.record(usage(model="a"))
        ledger.record(usage(model="b"))
        ledger.record(usage(model="a"))
        grouped = ledger.by_model()
        assert grouped["a"].calls == 2
        assert grouped["b"].calls == 1

    def test_by_operation_groups(self):
        ledger = UsageLedger()
        ledger.record(usage(op="filter"))
        ledger.record(usage(op="convert"))
        assert set(ledger.by_operation()) == {"filter", "convert"}

    def test_filtered_view(self):
        ledger = UsageLedger()
        ledger.record(usage(model="a", op="filter"))
        ledger.record(usage(model="b", op="filter"))
        ledger.record(usage(model="a", op="convert"))
        assert len(ledger.filtered(model="a")) == 2
        assert len(ledger.filtered(operation="filter")) == 2
        assert len(ledger.filtered(model="a", operation="filter")) == 1

    def test_records_returns_copy(self):
        ledger = UsageLedger()
        ledger.record(usage())
        snapshot = ledger.records
        snapshot.clear()
        assert len(ledger) == 1

    def test_summary_lines_mention_models(self):
        ledger = UsageLedger()
        ledger.record(usage(model="gpt-4o"))
        lines = ledger.summary_lines()
        assert any("gpt-4o" in line for line in lines)

    def test_clear(self):
        ledger = UsageLedger()
        ledger.record(usage())
        ledger.clear()
        assert len(ledger) == 0

    def test_extend(self):
        ledger = UsageLedger()
        ledger.extend([usage(), usage()])
        assert len(ledger) == 2

    def test_nested_captures_with_equal_contents_unwind_by_identity(self):
        # An inner capture that saw exactly the outer one's records compares
        # equal to it; leaving the inner block must not drop the outer.
        ledger = UsageLedger()
        with ledger.capture() as outer:
            with ledger.capture() as inner:
                ledger.record(usage(cost=0.5))
            assert inner == outer and inner is not outer
            ledger.record(usage(cost=0.25))
        assert [u.cost_usd for u in outer] == [0.5, 0.25]
        assert [u.cost_usd for u in inner] == [0.5]
        with ledger.capture() as later:
            ledger.record(usage())
        assert len(later) == 1 and len(outer) == 2


class TestVirtualTimestamps:
    def test_timestamps_monotone_within_a_sequential_run(self):
        import repro as pz
        from repro.core.builtin_schemas import TextFile
        from repro.core.sources import MemorySource
        from repro.execution.executors import SequentialExecutor
        from repro.optimizer.optimizer import Optimizer

        source = MemorySource(
            [f"doc {i} about colorectal cancer" for i in range(4)],
            dataset_id="ts-test", schema=TextFile,
        )
        dataset = pz.Dataset(source).filter("about colorectal cancer")
        report = Optimizer().optimize(dataset.logical_plan(), source)
        executor = SequentialExecutor()
        executor.execute(report.chosen.plan)
        timestamps = [
            u.virtual_timestamp for u in executor.context.ledger.records
        ]
        assert timestamps == sorted(timestamps)
        assert timestamps[0] > 0
