"""The PalimpChat session: agent + tools + workspace + notebook."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.agent.react import AgentResult, ReActAgent
from repro.chat.codegen import generate_program
from repro.chat.intent import PalimpChatBrain
from repro.chat.notebook import Notebook
from repro.chat.tools_pz import build_pz_tools
from repro.chat.workspace import PipelineWorkspace
from repro.llm.clock import VirtualClock
from repro.llm.models import ModelCard, get_model
from repro.llm.usage import UsageLedger
from repro.obs.trace import NULL_TRACER, SpanKind, Trace, Tracer
from repro.physical.options import ExecutionOptions


@dataclass
class ChatResponse:
    """What one chat turn returns to the caller/UI."""

    text: str
    tool_sequence: List[str] = field(default_factory=list)
    result: Optional[AgentResult] = None
    snapshot_index: int = -1

    def __str__(self) -> str:
        return self.text


class PalimpChatSession:
    """A conversational session for building and running AI pipelines.

    >>> session = PalimpChatSession()
    >>> reply = session.chat("load the papers from ./papers")  # doctest: +SKIP

    Args:
        agent_model: model card (or name) metering the agent's reasoning
            steps; must be reasoning-capable.
        max_workers: execution parallelism for pipelines run via chat.
        sample_size: optimizer sentinel sample size for chat-run pipelines.
        title: notebook title.
        trace: record a session-level trace — a ``chat.turn`` span per
            message with the agent's steps, intent routing, and tool
            invocations nested beneath (``session_trace()`` finalizes it).
            Pipeline executions additionally record their own run trace
            into ``workspace.last_trace`` regardless of this flag.
        on_event: session lifecycle hook — a callable receiving event
            dicts as the session works: ``turn_start`` / ``turn_end``
            around every :meth:`chat` call, with execution progress
            events (``plan_start`` / ``record_processed`` / ...)
            in between while a pipeline runs.  The serving layer points
            this at a per-turn progress buffer; it is swappable at any
            time via the ``on_event`` attribute.
    """

    def __init__(
        self,
        agent_model: Optional[str] = "gpt-4o",
        max_workers: int = 1,
        sample_size: int = 0,
        title: str = "PalimpChat session",
        trace: bool = True,
        on_event=None,
    ):
        self.on_event = on_event
        self.workspace = PipelineWorkspace()
        self.workspace.options = ExecutionOptions(max_workers=max_workers)
        self.workspace.sample_size = sample_size
        self.workspace.on_progress = self._emit_event
        self.registry = build_pz_tools(self.workspace)
        self.agent_ledger = UsageLedger()
        self.agent_clock = VirtualClock()
        self.tracer = Tracer(clock=self.agent_clock) if trace else NULL_TRACER
        self.brain = PalimpChatBrain(self.workspace, tracer=self.tracer)
        model: Optional[ModelCard] = (
            get_model(agent_model) if agent_model else None
        )
        self.agent = ReActAgent(
            registry=self.registry,
            brain=self.brain,
            model=model,
            clock=self.agent_clock,
            ledger=self.agent_ledger,
            max_steps=16,
            tracer=self.tracer,
        )
        self.notebook = Notebook(title=title)
        self.turns: List[ChatResponse] = []
        # The Beaker-style notebook kernel: a persistent namespace where
        # expert users iterate on the generated code directly.
        import repro as _pz

        self.kernel: Dict[str, Any] = {"pz": _pz}

    # -- conversation -----------------------------------------------------

    def _emit_event(self, event: Dict[str, Any]) -> None:
        """Forward one lifecycle/progress event to the hook (if any)."""
        hook = self.on_event
        if hook is not None:
            hook(event)

    def chat(self, message: str) -> ChatResponse:
        """Process one user message through the ReAct agent."""
        self._emit_event({
            "type": "turn_start",
            "turn": len(self.turns),
            "message_chars": len(message),
        })
        self.notebook.add_markdown(f"**User:** {message}")
        try:
            with self.tracer.span(
                "chat.turn", SpanKind.CHAT, clock=self.agent_clock,
                turn=len(self.turns), message_chars=len(message),
            ) as turn_span:
                result = self.agent.run(message, state={})
                if self.tracer.enabled:
                    turn_span.set_attribute(
                        "tools", result.trace.tool_sequence()
                    )
        except Exception as exc:
            # Errored turns still close their lifecycle on the event
            # stream (the serving layer logs and streams these); the
            # exception itself propagates to the caller unchanged.
            self._emit_event({
                "type": "turn_error",
                "turn": len(self.turns),
                "error": f"{type(exc).__name__}: {exc}",
            })
            raise

        # Record generated code for pipeline-building turns.
        code = generate_program(self.workspace)
        tool_sequence = result.trace.tool_sequence()
        built_pipeline = any(
            name in ("load_dataset", "filter_dataset", "convert_dataset",
                     "create_schema", "execute_pipeline")
            for name in tool_sequence
        )
        if built_pipeline:
            self.notebook.add_code(code, outputs=[result.answer])
        else:
            self.notebook.add_markdown(f"**PalimpChat:** {result.answer}")

        snapshot_index = self.notebook.snapshot_state(self.workspace)
        response = ChatResponse(
            text=result.answer,
            tool_sequence=tool_sequence,
            result=result,
            snapshot_index=snapshot_index,
        )
        self.turns.append(response)
        self._emit_event({
            "type": "turn_end",
            "turn": len(self.turns) - 1,
            "tools": list(tool_sequence),
            "reply_chars": len(result.answer),
        })
        return response

    def restore(self, snapshot_index: int) -> None:
        """Rewind the workspace to an earlier turn (Beaker state restore)."""
        self.notebook.restore_state(snapshot_index, self.workspace)

    def run_code(self, source: str) -> str:
        """Execute Python in the session's notebook kernel.

        "Expert users can either further iterate on the code produced using
        the chat interface, or program their pipelines directly" (§1) —
        this is that path: the kernel namespace persists across calls, has
        ``pz`` (the repro API) preloaded, and each execution is recorded as
        a notebook code cell with its captured stdout.

        Returns the captured stdout (empty string if the code printed
        nothing).  Exceptions propagate to the caller after the failed
        cell is recorded.
        """
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                exec(compile(source, "<palimpchat-kernel>", "exec"),
                     self.kernel)
        except Exception as exc:
            self.notebook.add_code(
                source, outputs=[f"{type(exc).__name__}: {exc}"]
            )
            raise
        output = stdout.getvalue()
        self.notebook.add_code(source, outputs=[output] if output else [])
        return output

    def lint(self):
        """Statically check the pipeline built so far.

        Returns the :class:`~repro.analysis.LintResult` for the current
        pipeline (empty when no dataset is loaded yet).  The same check
        runs automatically before ``execute_pipeline``, surfacing
        error-level findings as a chat reply instead of a mid-run crash.
        """
        from repro.analysis import LintResult, lint_plan

        if self.workspace.current is None:
            return LintResult()
        return lint_plan(self.workspace.current)

    # -- artifacts ---------------------------------------------------------

    def generated_code(self) -> str:
        """The Fig. 6-style program for the pipeline built so far."""
        return generate_program(self.workspace)

    def export_notebook(self, path) -> Path:
        """Save the session as a Jupyter notebook the user can download."""
        return self.notebook.save(path)

    def agent_cost_usd(self) -> float:
        """Simulated spend of the agent's own reasoning calls."""
        return self.agent_ledger.total().cost_usd

    def session_trace(self) -> Trace:
        """Finalize the session-level trace recorded so far (one
        ``chat.turn`` root per message; empty when tracing is off)."""
        return self.tracer.finish()

    @property
    def last_trace(self):
        """Execution trace of the last pipeline run via chat (or None)."""
        return self.workspace.last_trace

    @property
    def last_records(self):
        return self.workspace.last_records

    @property
    def last_stats(self):
        return self.workspace.last_stats

    @property
    def last_provenance(self):
        """ProvenanceGraph of the last pipeline run via chat (or None)."""
        return self.workspace.last_provenance

    @property
    def run_history(self):
        """RunSnapshots of every pipeline execution in this session."""
        return self.workspace.run_history
