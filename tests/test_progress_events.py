"""Executor progress events and the per-turn ProgressBuffer."""

import sys
import threading
import time

import pytest

import repro as pz
from repro.core.builtin_schemas import TextFile
from repro.core.sources import MemorySource
from repro.execution import (
    AsyncExecutor,
    ParallelExecutor,
    PipelinedExecutor,
    SequentialExecutor,
    ShardedExecutor,
)
from repro.optimizer.optimizer import Optimizer
from repro.physical.options import EXECUTORS
from repro.server.progress import ProgressBuffer, progress_events_from_trace

sys.path.insert(0, "tests")
from test_execution_pipeline import (  # noqa: E402
    chosen_plan,
    make_source,
    shape_filter_convert,
)


def make_plan(n=5, blocking=False, dataset_id="events"):
    docs = [f"document number {i}" for i in range(n)]
    source = MemorySource(docs, dataset_id=dataset_id, schema=TextFile)
    dataset = pz.Dataset(source)
    if blocking:
        dataset = dataset.count()
    report = Optimizer().optimize(dataset.logical_plan(), source)
    return report.chosen.plan


class TestSequentialEvents:
    def test_event_sequence(self):
        events = []
        executor = SequentialExecutor(on_event=events.append)
        executor.execute(make_plan(n=4))
        kinds = [e["type"] for e in events]
        assert kinds[0] == "plan_start"
        assert kinds[-1] == "plan_end"
        assert kinds.count("record_processed") == 4

    def test_record_events_carry_progress(self):
        events = []
        executor = SequentialExecutor(on_event=events.append)
        executor.execute(make_plan(n=3))
        indices = [
            e["index"] for e in events if e["type"] == "record_processed"
        ]
        assert indices == [1, 2, 3]

    def test_plan_end_totals_match_stats(self):
        events = []
        executor = SequentialExecutor(on_event=events.append)
        records, stats = executor.execute(make_plan(n=3))
        end = events[-1]
        assert end["records_out"] == len(records)
        assert end["cost_usd"] == pytest.approx(stats.total_cost_usd)

    def test_blocking_flush_event(self):
        events = []
        executor = SequentialExecutor(on_event=events.append)
        executor.execute(make_plan(n=3, blocking=True, dataset_id="ev-agg"))
        flushes = [e for e in events if e["type"] == "operator_flush"]
        assert len(flushes) == 1
        assert flushes[0]["records"] == 1

    def test_no_callback_is_fine(self):
        records, _ = SequentialExecutor().execute(make_plan(n=2))
        assert len(records) == 2


class TestParallelEvents:
    def test_parallel_executor_emits_too(self):
        events = []
        executor = ParallelExecutor(max_workers=2, on_event=events.append)
        executor.execute(make_plan(n=4, dataset_id="ev-par"))
        assert [e["type"] for e in events].count("record_processed") == 4


class TestEveryExecutorEmits:
    """``Execute(on_event=...)`` reaches every executor name, not only the
    inline ones."""

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_plan_start_one_event_per_source_record_plan_end(self, name):
        n = 6
        docs = [f"progress document {i}" for i in range(n)]
        source = MemorySource(docs, dataset_id=f"ev-{name}", schema=TextFile)
        dataset = pz.Dataset(source).filter("mentions a document").count()
        events = []
        records, stats = pz.Execute(
            dataset, executor=name, max_workers=2, on_event=events.append
        )
        kinds = [e["type"] for e in events]
        assert kinds[0] == "plan_start"
        assert kinds[-1] == "plan_end"
        assert kinds.count("operator_flush") == 1
        # One per source record, in scan order.
        assert [
            e["index"] for e in events if e["type"] == "record_processed"
        ] == list(range(1, n + 1))
        assert events[-1]["records_out"] == len(records)
        assert stats.executor == name

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_listening_does_not_change_the_run(self, name):
        docs = [f"observed document {i}" for i in range(5)]

        def run(on_event):
            source = MemorySource(docs, dataset_id=f"ev-same-{name}",
                                  schema=TextFile)
            records, stats = pz.Execute(
                pz.Dataset(source).filter("mentions a document"),
                executor=name, max_workers=2, on_event=on_event,
            )
            return [r.to_dict() for r in records], stats.to_dict()

        assert run(None) == run([].append)


class TestExactProgress:
    """At ``batch_size=1`` every schedule reports the outputs produced so
    far exactly as the sequential loop does."""

    @staticmethod
    def progress(build):
        source = make_source(n=12, dataset_id="ev-exact")
        plan = chosen_plan(shape_filter_convert(source), source)
        events = []
        build(events.append).execute(plan)
        return [
            (e["index"], e["outputs_so_far"])
            for e in events if e["type"] == "record_processed"
        ]

    @pytest.mark.parametrize("build", [
        lambda on_event: PipelinedExecutor(max_workers=2, on_event=on_event),
        lambda on_event: ShardedExecutor(shards=2, on_event=on_event),
        lambda on_event: AsyncExecutor(fanout=2, on_event=on_event),
    ], ids=["pipelined", "sharded", "async"])
    def test_outputs_so_far_match_sequential(self, build):
        expected = self.progress(
            lambda on_event: SequentialExecutor(on_event=on_event))
        assert expected[-1][1] > 0
        assert self.progress(build) == expected


class TestProgressBufferEdges:
    def test_long_poll_times_out_empty(self):
        buffer = ProgressBuffer()
        started = time.monotonic()
        events, done, next_offset = buffer.read(offset=0,
                                                wait_seconds=0.15)
        waited = time.monotonic() - started
        assert events == [] and done is False and next_offset == 0
        assert waited >= 0.1  # actually blocked, then expired

    def test_long_poll_wakes_on_emit(self):
        buffer = ProgressBuffer()
        result = {}

        def reader():
            result["read"] = buffer.read(offset=0, wait_seconds=10.0)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        buffer.emit({"type": "tick"})
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        events, done, next_offset = result["read"]
        assert [e["type"] for e in events] == ["tick"]
        assert next_offset == 1

    def test_long_poll_wakes_on_close(self):
        buffer = ProgressBuffer()
        result = {}

        def reader():
            result["read"] = buffer.read(offset=0, wait_seconds=10.0)

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        buffer.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        events, done, _ = result["read"]
        assert events == [] and done is True

    def test_offset_past_end_returns_empty_not_error(self):
        buffer = ProgressBuffer()
        buffer.emit({"type": "a"})
        events, done, next_offset = buffer.read(offset=99)
        assert events == [] and next_offset == 99
        buffer.close()
        events, done, next_offset = buffer.read(offset=99)
        assert done is True and next_offset == 99

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="offset must be >= 0"):
            ProgressBuffer().read(offset=-1)

    def test_emit_after_close_is_dropped(self):
        buffer = ProgressBuffer()
        buffer.emit({"type": "a"})
        buffer.close()
        buffer.emit({"type": "late"})
        buffer.extend([{"type": "later"}])
        assert len(buffer) == 1
        assert buffer.snapshot() == [{"type": "a"}]

    def test_events_are_copied_both_ways(self):
        buffer = ProgressBuffer()
        original = {"type": "a", "nested": 1}
        buffer.emit(original)
        original["type"] = "mutated"
        events, _, _ = buffer.read()
        assert events[0]["type"] == "a"
        events[0]["type"] = "reader-mutated"
        assert buffer.snapshot()[0]["type"] == "a"

    def test_concurrent_writer_and_reader_see_every_event(self):
        buffer = ProgressBuffer()
        total = 200
        collected = []

        def writer():
            for i in range(total):
                buffer.emit({"type": "tick", "i": i})
            buffer.close()

        def reader():
            offset, done = 0, False
            while not done:
                events, done, offset = buffer.read(
                    offset=offset, wait_seconds=5.0)
                collected.extend(events)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
        assert [e["i"] for e in collected] == list(range(total))

    def test_two_readers_at_different_offsets(self):
        buffer = ProgressBuffer()
        for i in range(5):
            buffer.emit({"i": i})
        head, _, _ = buffer.read(offset=0)
        tail, _, _ = buffer.read(offset=3)
        assert [e["i"] for e in head] == [0, 1, 2, 3, 4]
        assert [e["i"] for e in tail] == [3, 4]


class TestFinishedTurnEviction:
    """A finished turn's live buffer is evicted on persistence: the
    store truncates the event tail to its disk cap and rebuilds a
    closed buffer on restore."""

    def test_persisted_turn_truncates_and_stays_closed(self):
        from repro.server.store import _PERSISTED_EVENTS, TurnState

        turn = TurnState("t-0001", "hello", request_id="req-1")
        for i in range(_PERSISTED_EVENTS + 50):
            turn.events.emit({"type": "tick", "i": i})
        turn.events.close()
        payload = turn.to_payload()
        assert len(payload["events"]) == _PERSISTED_EVENTS
        # The newest events survive eviction, not the oldest.
        assert payload["events"][-1]["i"] == _PERSISTED_EVENTS + 49

        restored = TurnState.from_payload(payload)
        assert restored.request_id == "req-1"
        assert restored.events.closed is True
        events, done, _ = restored.events.read()
        assert done is True and len(events) == _PERSISTED_EVENTS


class TestSpanTailTruncation:
    def test_span_events_capped_with_marker(self):
        trace = {"spans": [
            {"name": f"op.process{i}", "kind": "operator", "start": i,
             "duration": 1, "lane": 0}
            for i in range(10)
        ]}
        events = progress_events_from_trace(trace, limit=4)
        assert len(events) == 5
        assert events[-1] == {"type": "truncated", "dropped_spans": 6}

    def test_uninteresting_kinds_filtered(self):
        trace = {"spans": [
            {"name": "op.process", "kind": "operator"},
            {"name": "record.step", "kind": "record"},
        ]}
        events = progress_events_from_trace(trace)
        assert [e["name"] for e in events] == ["op.process"]
