"""Plan lint surfaces through the chat loop instead of crashing mid-run."""

from repro.chat.session import PalimpChatSession
from repro.core.dataset import Dataset
from repro.core.sources import MemorySource


def broken_dataset():
    source = MemorySource(["alpha", "beta"], "chat-lint-test")
    return Dataset(source).filter("about science", depends_on=["titel"])


class TestExecuteSurfacesLint:
    def test_run_reports_diagnostics_as_chat_reply(self):
        session = PalimpChatSession()
        session.workspace.current = broken_dataset()
        reply = session.chat("run the pipeline")
        assert "PZ101" in reply.text
        assert "titel" in reply.text
        assert "execute_pipeline" in reply.tool_sequence

    def test_nothing_is_executed_on_lint_errors(self):
        session = PalimpChatSession()
        session.workspace.current = broken_dataset()
        session.chat("run the pipeline")
        assert session.last_run is None
        assert session.workspace.run_ids == []


class TestLintTool:
    def test_lint_intent_invokes_lint_tool(self):
        session = PalimpChatSession()
        session.workspace.current = broken_dataset()
        reply = session.chat("lint the pipeline")
        assert "lint_pipeline" in reply.tool_sequence
        assert "PZ101" in reply.text

    def test_check_pipeline_phrasing(self):
        session = PalimpChatSession()
        session.workspace.current = broken_dataset()
        reply = session.chat("can you check the pipeline for mistakes?")
        assert "lint_pipeline" in reply.tool_sequence

    def test_clean_pipeline_reports_no_findings(self):
        session = PalimpChatSession()
        source = MemorySource(["alpha", "beta"], "chat-lint-clean")
        session.workspace.current = Dataset(source).filter("about science")
        reply = session.chat("lint the pipeline")
        assert "no findings" in reply.text


class TestSessionLintMethod:
    def test_lint_method_returns_result(self):
        session = PalimpChatSession()
        session.workspace.current = broken_dataset()
        result = session.lint()
        assert not result.ok
        assert "PZ101" in result.codes()

    def test_lint_with_no_pipeline_is_empty(self):
        session = PalimpChatSession()
        assert len(session.lint()) == 0
