"""Chat-layer observability: session traces and "what took so long"."""

import pytest

from repro.chat.intent import plan_requests
from repro.chat.session import PalimpChatSession
from repro.chat.workspace import PipelineWorkspace
from repro.obs.trace import SpanKind, Trace


@pytest.fixture()
def session(sigmod_demo):
    return PalimpChatSession()


def run_pipeline(session):
    session.chat("Load the papers from the sigmod-demo dataset")
    session.chat("Keep only the papers about colorectal cancer")
    session.chat("Maximize quality and run the pipeline")


class TestExplainIntent:
    @pytest.mark.parametrize("message", [
        "What took so long?",
        "Explain the last run",
        "Why was it so slow?",
        "Profile the previous execution",
        "What was the bottleneck?",
        "Where did the time go?",
    ])
    def test_phrasings_route_to_explain(self, message):
        calls = plan_requests(message, PipelineWorkspace())
        assert [c.tool_name for c in calls] == ["explain_execution"]

    def test_run_phrasings_still_execute(self):
        workspace = PipelineWorkspace()
        calls = plan_requests("run the pipeline", workspace)
        assert [c.tool_name for c in calls] == ["execute_pipeline"]
        # "explain the plans" keeps meaning plan-space explanation.
        calls = plan_requests("explain the plans", workspace)
        assert "explain_execution" not in [c.tool_name for c in calls]


class TestExplainExecutionTool:
    def test_answers_after_a_run(self, session):
        run_pipeline(session)
        reply = session.chat("What took so long?")
        assert reply.tool_sequence == ["explain_execution"]
        assert "Hotspots" in reply.text or "Critical path" in reply.text
        assert "LLM calls:" in reply.text

    def test_errors_before_any_run(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        reply = session.chat("What took so long?")
        assert "explain_execution" in reply.tool_sequence
        assert "no pipeline has been executed" in reply.text.lower() \
            or "error" in reply.text.lower()

    def test_last_trace_stored_on_workspace(self, session):
        run_pipeline(session)
        assert session.last_run.trace is not None
        trace = Trace.from_dict(session.last_run.trace)
        assert trace.first("plan.run") is not None


class TestProvenanceIntents:
    @pytest.mark.parametrize("message,tool,arguments", [
        ("Why is record 3 in the output?",
         "explain_record", {"record_id": 3}),
        ("Explain record #2", "explain_record", {"record_id": 2}),
        ("What is the provenance of the first result?",
         "explain_record", {"record_id": 0}),
        ("Why isn't paper-003.pdf in the output?",
         "explain_record", {"source": "paper-003.pdf"}),
        ("What happened to paper-007.pdf?",
         "explain_record", {"source": "paper-007.pdf"}),
        ("Why was record 4 filtered out?",
         "explain_record", {"source": "record 4 filtered out"}),
        ("What changed since the last run?", "compare_runs", {}),
        ("How do the two runs differ?", "compare_runs", {}),
    ])
    def test_phrasings_route_with_arguments(self, message, tool, arguments):
        calls = plan_requests(message, PipelineWorkspace())
        assert [c.tool_name for c in calls] == [tool]
        assert calls[0].arguments == arguments

    def test_compare_does_not_trigger_execute(self):
        # "...last run" contains "run"; the longer compare_runs span must
        # suppress the contained execute hit.
        calls = plan_requests(
            "what changed since the last run?", PipelineWorkspace())
        assert "execute_pipeline" not in [c.tool_name for c in calls]

    def test_run_phrasings_still_execute(self):
        calls = plan_requests("run the pipeline", PipelineWorkspace())
        assert [c.tool_name for c in calls] == ["execute_pipeline"]


class TestProvenanceTools:
    def test_why_after_a_run(self, session):
        run_pipeline(session)
        assert session.last_run.graph is not None
        reply = session.chat("Why is record 1 in the output?")
        assert reply.tool_sequence == ["explain_record"]
        assert "record #1" in reply.text
        assert "produced by" in reply.text or "source" in reply.text

    def test_why_without_id_lists_outputs(self, session):
        run_pipeline(session)
        reply = session.chat("Give me the derivation tree")
        assert reply.tool_sequence == ["explain_record"]
        assert "#" in reply.text

    def test_why_not_names_the_eliminating_op(self, session):
        run_pipeline(session)
        reply = session.chat("Why isn't paper-002.pdf in the output?")
        assert reply.tool_sequence == ["explain_record"]
        assert "paper-002.pdf" in reply.text

    def test_errors_before_any_run(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        reply = session.chat("Why is record 1 in the output?")
        assert "explain_record" in reply.tool_sequence
        assert "error" in reply.text.lower() \
            or "no provenance" in reply.text.lower()

    def test_compare_needs_two_runs(self, session):
        run_pipeline(session)
        reply = session.chat("What changed since the last run?")
        assert "compare_runs" in reply.tool_sequence
        assert "error" in reply.text.lower() or "two" in reply.text.lower()

    def test_compare_after_two_runs(self, session):
        run_pipeline(session)
        session.chat("Run the pipeline again")
        assert len(session.workspace.run_ids) == 2
        reply = session.chat("What changed since the last run?")
        assert "compare_runs" in reply.tool_sequence
        assert "Run diff" in reply.text
        assert "plan:" in reply.text

    def test_run_history_survives_reset(self, session):
        run_pipeline(session)
        session.chat("Start over")
        assert session.last_run is None
        assert len(session.workspace.run_ids) == 1


class TestSessionTrace:
    def test_chat_turn_spans_per_message(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        session.chat("Keep only the papers about colorectal cancer")
        trace = session.session_trace()
        turns = trace.find("chat.turn")
        assert len(turns) == 2
        assert [t.attributes["turn"] for t in turns] == [0, 1]

    def test_nesting_chat_agent_tool_llm(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        trace = session.session_trace()
        turn = trace.first("chat.turn")
        run = trace.first("agent.run")
        step = trace.first("agent.step")
        invoke = trace.first("tool.invoke")
        assert run.parent_id == turn.span_id
        assert step.parent_id == run.span_id
        assert invoke.attributes["tool"] == "load_dataset"
        # The intent decomposition is traced under the agent's run.
        assert trace.first("chat.intent") is not None

    def test_agent_events_recorded(self, session):
        session.chat("Load the papers from the sigmod-demo dataset")
        trace = session.session_trace()
        thoughts = trace.find("agent.thought")
        observations = trace.find("agent.observation")
        assert thoughts and observations
        assert all(t.duration == 0.0 for t in thoughts)
        assert all(t.kind == SpanKind.AGENT for t in thoughts)

    def test_untraced_session_records_nothing(self, sigmod_demo):
        session = PalimpChatSession(trace=False)
        session.chat("Load the papers from the sigmod-demo dataset")
        assert len(session.session_trace()) == 0

    def test_tracing_does_not_change_replies(self, sigmod_demo):
        traced = PalimpChatSession()
        untraced = PalimpChatSession(trace=False)
        prompts = [
            "Load the papers from the sigmod-demo dataset",
            "Keep only the papers about colorectal cancer",
            "Maximize quality and run the pipeline",
        ]
        for prompt in prompts:
            reply_t = traced.chat(prompt)
            reply_u = untraced.chat(prompt)
            assert reply_t.text == reply_u.text
            assert reply_t.tool_sequence == reply_u.tool_sequence
