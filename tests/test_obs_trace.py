"""Tracing core: span nesting, canonical finalization, null tracer."""

from repro.llm.clock import VirtualClock
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanKind,
    Trace,
    Tracer,
)


class TestSpan:
    def test_duration_and_finish_at(self):
        span = Span("x.y", start=2.0)
        assert span.duration == 0.0  # unfinished
        span.finish_at(5.5)
        assert span.duration == 3.5

    def test_finish_at_wins_over_context_exit(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("op.process", SpanKind.OPERATOR) as span:
            clock.advance(10.0)
            span.finish_at(span.start + 3.0)
        assert span.duration == 3.0

    def test_self_time_excludes_children(self):
        parent = Span("a.b", start=0.0, end=10.0)
        child = Span("c.d", start=0.0, end=4.0)
        parent.children.append(child)
        assert parent.self_time() == 6.0

    def test_negative_duration_clamped(self):
        span = Span("x.y", start=5.0, end=3.0)
        assert span.duration == 0.0


class TestTracerNesting:
    def test_with_block_nests_and_times(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer.a", SpanKind.INTERNAL):
            clock.advance(1.0)
            with tracer.span("inner.b", SpanKind.INTERNAL):
                clock.advance(2.0)
            clock.advance(1.0)
        trace = tracer.finish()
        outer = trace.first("outer.a")
        inner = trace.first("inner.b")
        assert outer.duration == 4.0
        assert inner.duration == 2.0
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0

    def test_event_is_zero_duration(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        clock.advance(3.0)
        with tracer.span("outer.a"):
            tracer.event("agent.thought", SpanKind.AGENT, chars=42)
        trace = tracer.finish()
        event = trace.first("agent.thought")
        assert event.duration == 0.0
        assert event.start == 3.0
        assert event.attributes["chars"] == 42

    def test_record_uses_explicit_times(self):
        tracer = Tracer()
        tracer.record("llm.call", SpanKind.LLM, 1.5, 4.0, 2, model="m")
        trace = tracer.finish()
        span = trace.first("llm.call")
        assert (span.start, span.end, span.lane) == (1.5, 4.0, 2)

    def test_start_span_does_not_push(self):
        tracer = Tracer()
        owned = tracer.start_span("pipeline.stage", SpanKind.STAGE)
        # A subsequent span must NOT nest under the started span.
        with tracer.span("other.a"):
            pass
        assert tracer.current_span() is None
        trace = tracer.finish()
        assert trace.first("other.a").parent_id == 0
        assert owned in trace.roots

    def test_attach_parents_across_visits(self):
        tracer = Tracer()
        stage = tracer.start_span("pipeline.stage", SpanKind.STAGE)
        for seq in (2, 0, 3, 1):
            with tracer.attach(stage):
                with tracer.span("pipeline.bundle", SpanKind.BUNDLE,
                                 seq=seq):
                    pass
            assert tracer.current_span() is None
        trace = tracer.finish()
        stage_span = trace.first("pipeline.stage")
        assert [c.attributes["seq"] for c in stage_span.children] == [
            0, 1, 2, 3]
        for child in stage_span.children:
            assert child.parent_id == stage_span.span_id

    def test_attach_none_is_noop(self):
        tracer = Tracer()
        with tracer.attach(None):
            with tracer.span("a.b"):
                pass
        assert tracer.finish().first("a.b").parent_id == 0


class TestTraceFinalization:
    def test_ids_depth_first_from_one(self):
        tracer = Tracer()
        with tracer.span("r.one"):
            with tracer.span("c.one"):
                pass
            with tracer.span("c.two"):
                pass
        trace = tracer.finish()
        assert [s.span_id for s in trace.spans] == [1, 2, 3]
        assert [s.name for s in trace.spans] == ["r.one", "c.one", "c.two"]

    def test_seq_attribute_orders_siblings(self):
        root = Span("pipeline.stage", SpanKind.STAGE, 0.0, 1.0)
        for seq in (2, 0, 1):
            root.children.append(
                Span("pipeline.bundle", SpanKind.BUNDLE,
                     attributes={"seq": seq}))
        trace = Trace([root])
        seqs = [c.attributes["seq"]
                for c in trace.first("pipeline.stage").children]
        assert seqs == [0, 1, 2]

    def test_missing_seq_keeps_append_order_after_seq_spans(self):
        root = Span("r.oot", start=0.0, end=1.0)
        root.children.append(Span("late.a"))
        root.children.append(
            Span("b.undle", attributes={"seq": 0}))
        trace = Trace([root])
        names = [c.name for c in trace.roots[0].children]
        assert names == ["b.undle", "late.a"]

    def test_signature_is_stable(self):
        def build():
            clock = VirtualClock()
            tracer = Tracer(clock=clock)
            with tracer.span("plan.run", SpanKind.PLAN, executor="seq"):
                clock.advance(1.25)
                tracer.record("llm.call", SpanKind.LLM, 0.0, 1.25, 0,
                              model="gpt-4o", operation="filter")
            return tracer.finish().signature()

        assert build() == build()
        assert "plan.run" in build() and "llm.call" in build()

    def test_makespan_and_find(self):
        tracer = Tracer()
        tracer.record("a.b", SpanKind.INTERNAL, 0.0, 2.0, 0)
        tracer.record("a.b", SpanKind.INTERNAL, 1.0, 5.0, 1)
        trace = tracer.finish()
        assert trace.makespan == 5.0
        assert len(trace.find("a.b")) == 2
        assert trace.first("missing.name") is None
        assert len(trace) == 2


class TestNullTracer:
    def test_disabled_and_shared_span(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        span = NULL_TRACER.span("a.b", SpanKind.CHAT, anything=1)
        with span as inner:
            inner.set_attribute("k", "v")
            inner.finish_at(99.0)
        assert NULL_TRACER.event("x.y") is span
        assert NULL_TRACER.record("x.y", SpanKind.LLM, 0, 1, 0) is span
        assert NULL_TRACER.start_span("x.y") is span
        assert NULL_TRACER.attach(None) is span

    def test_finish_returns_empty_trace(self):
        trace = NULL_TRACER.finish()
        assert len(trace) == 0
        assert trace.makespan == 0.0

    def test_real_tracer_enabled(self):
        assert Tracer().enabled is True
