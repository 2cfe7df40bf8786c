"""The PalimpChat session: agent + tools + workspace + turn log.

The session's record of a conversation is its turn log (:attr:`turns`)
beside the workspace's step log.  Each turn keeps the step count it ended
at, so the notebook renders from the two at export, :meth:`restore`
refolds a prefix of the steps, and :meth:`to_payload` /
:meth:`from_payload` carry a session across processes.
"""

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

#: Tools whose turns render as the program built so far.
_PIPELINE_TOOLS = ("load_dataset", "filter_dataset", "convert_dataset",
                   "create_schema", "execute_pipeline")
#: The fields of a turn that its persisted row keeps.
_ROW_FIELDS = ("message", "text", "tool_sequence", "steps", "code",
               "outputs")


@dataclass
class ChatResponse:
    """One turn of the session's log; :meth:`PalimpChatSession.chat`
    returns the chat turns.

    A chat turn has the user's ``message``, the reply ``text`` (None when
    the turn raised) and the ``tool_sequence``; a kernel cell
    (:meth:`PalimpChatSession.run_code`) has its ``code`` and
    ``outputs``.  ``steps`` is the workspace's step count when the turn
    ended, and ``snapshot_index`` the turn's place in the log:
    ``restore(snapshot_index)`` returns to the state as of this turn.
    """

    text: Optional[str]
    tool_sequence: List[str] = field(default_factory=list)
    result: Optional[AgentResult] = None
    snapshot_index: int = -1
    message: Optional[str] = None
    steps: int = 0
    code: Optional[str] = None
    outputs: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        return self.text or ""


class PalimpChatSession:
    """A conversational session for building and running AI pipelines.

    >>> session = PalimpChatSession()
    >>> reply = session.chat("load the papers from ./papers")  # doctest: +SKIP

    Args:
        agent_model: model card (or name) metering the agent's reasoning
            steps; must be reasoning-capable.
        title: notebook title.
        trace: record a session-level trace — a ``chat.turn`` span per
            message with the agent's steps, intent routing, and tool
            invocations nested beneath (``session_trace()`` finalizes it).
            Pipeline executions additionally record their own run trace
            (``last_run.trace``) regardless of this flag.
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
        title: str = "PalimpChat session",
        trace: bool = True,
        on_event=None,
    ):
        self.on_event = on_event
        self.title = title
        self.workspace = PipelineWorkspace()
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
        self.turns: List[ChatResponse] = []
        # The Beaker-style notebook kernel: a persistent namespace where
        # expert users iterate on the generated code directly.
        import repro as _pz

        self.kernel: Dict[str, Any] = {"pz": _pz}

    # -- persistence ------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-able session: the workspace's step log and run ids,
        and one row per turn."""
        return {"workspace": self.workspace.to_payload(),
                "turns": [{name: getattr(turn, name) for name in _ROW_FIELDS}
                          for turn in self.turns]}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any],
                     **kwargs) -> "PalimpChatSession":
        """A session rebuilt from :meth:`to_payload` output (``kwargs``
        go to the constructor).  The steps refold; the kernel namespace
        starts empty."""
        session = cls(**kwargs)
        session.workspace.apply_payload(payload.get("workspace") or {})
        for row in payload.get("turns") or []:
            session.turns.append(ChatResponse(
                **row, snapshot_index=len(session.turns)))
        return session

    # -- conversation -----------------------------------------------------

    def _emit_event(self, event: Dict[str, Any]) -> None:
        """Forward one lifecycle/progress event to the hook (if any)."""
        hook = self.on_event
        if hook is not None:
            hook(event)

    def chat(self, message: str) -> ChatResponse:
        """Process one user message through the ReAct agent."""
        index = len(self.turns)
        self._emit_event({
            "type": "turn_start",
            "turn": index,
            "message_chars": len(message),
        })
        try:
            with self.tracer.span(
                "chat.turn", SpanKind.CHAT, clock=self.agent_clock,
                turn=index, message_chars=len(message),
            ) as turn_span:
                result = self.agent.run(message, state={})
                if self.tracer.enabled:
                    turn_span.set_attribute(
                        "tools", result.trace.tool_sequence()
                    )
        except Exception as exc:
            # Errored turns still close their lifecycle on the event
            # stream (the serving layer logs and streams these); the
            # exception itself propagates to the caller unchanged.  The
            # turn stays in the log, with no reply.
            self._log_turn(ChatResponse(text=None, message=message))
            self._emit_event({
                "type": "turn_error",
                "turn": index,
                "error": f"{type(exc).__name__}: {exc}",
            })
            raise

        tool_sequence = result.trace.tool_sequence()
        response = self._log_turn(ChatResponse(
            text=result.answer,
            tool_sequence=tool_sequence,
            result=result,
            message=message,
        ))
        self._emit_event({
            "type": "turn_end",
            "turn": index,
            "tools": list(tool_sequence),
            "reply_chars": len(result.answer),
        })
        return response

    def _log_turn(self, turn: ChatResponse) -> ChatResponse:
        turn.snapshot_index = len(self.turns)
        turn.steps = len(self.workspace.steps)
        self.turns.append(turn)
        return turn

    def restore(self, snapshot_index: int) -> None:
        """Return to the state as of turn ``snapshot_index`` (Beaker's
        state restore): the step log is cut to that turn's mark and
        refolded, and the later turns leave the session and its notebook.
        The kernel namespace is not rewound."""
        index = range(len(self.turns))[snapshot_index]
        del self.turns[index + 1:]
        self.workspace.replay(self.workspace.steps[:self.turns[index].steps])

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
            self._log_turn(ChatResponse(
                None, code=source, outputs=[f"{type(exc).__name__}: {exc}"]))
            raise
        output = stdout.getvalue()
        self._log_turn(ChatResponse(None, code=source,
                                    outputs=[output] if output else []))
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
        return generate_program(self.workspace.steps)

    @property
    def notebook(self) -> Notebook:
        """The session's notebook, rendered from the turns: each chat turn
        as the user's message, then either the program as of that turn
        (for turns that built or ran the pipeline) or the reply; each
        kernel cell as itself."""
        notebook = Notebook(title=self.title)
        steps = self.workspace.steps
        for turn in self.turns:
            if turn.code is not None:
                notebook.add_code(turn.code, outputs=turn.outputs)
                continue
            notebook.add_markdown(f"**User:** {turn.message}")
            if turn.text is None:
                continue
            if any(name in _PIPELINE_TOOLS for name in turn.tool_sequence):
                notebook.add_code(generate_program(steps[:turn.steps]),
                                  outputs=[turn.text])
            else:
                notebook.add_markdown(f"**PalimpChat:** {turn.text}")
        return notebook

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
    def last_run(self):
        """:class:`~repro.obs.registry.RunSnapshot` of the current result
        (the last pipeline run via chat), or None."""
        run_id = self.workspace.current_run_id
        return None if run_id is None else self.workspace.runs.get(run_id)
