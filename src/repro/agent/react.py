"""The ReAct loop: Thought -> Action -> Observation, iterated.

The *brain* — the reasoning policy that decides what to do next — is
pluggable.  PalimpChat uses the deterministic intent engine in
:mod:`repro.chat.intent`; tests use :class:`ScriptedBrain`.  Either way the
loop is the same: the brain sees the user message, the tool specs, and the
scratchpad of previous steps, and returns either a :class:`ToolCall` or a
:class:`FinalAnswer`.

When a model card is attached, every reasoning step is metered as a simulated
LLM call over the actual agent prompt (system + tools block + scratchpad), so
chat-driven pipelines account for their agent overhead too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.agent.tools import Tool, ToolError, ToolRegistry
from repro.llm.client import CompletionRequest, SimulatedLLMClient
from repro.llm.clock import VirtualClock
from repro.llm.models import ModelCard
from repro.llm.prompts import agent_prompt_parts
from repro.llm.usage import UsageLedger
from repro.obs.trace import NULL_TRACER, SpanKind

DEFAULT_SYSTEM_PROMPT = (
    "You are a helpful reasoning agent. Decompose the user's request into "
    "steps, choosing a tool for each step, and produce a final answer when "
    "the request is satisfied."
)


@dataclass(frozen=True)
class ToolCall:
    """Brain decision: invoke a tool."""

    thought: str
    tool_name: str
    arguments: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class FinalAnswer:
    """Brain decision: stop and answer the user."""

    thought: str
    answer: str


Decision = Union[ToolCall, FinalAnswer]


@dataclass(frozen=True)
class AgentStep:
    """One entry of an agent trace."""

    kind: str  # "thought" | "action" | "observation" | "final" | "error"
    content: str
    tool_name: Optional[str] = None
    arguments: Optional[Dict[str, Any]] = None


@dataclass
class AgentTrace:
    """The full Thought/Action/Observation record of one agent run."""

    steps: List[AgentStep] = field(default_factory=list)

    def append(self, step: AgentStep) -> None:
        self.steps.append(step)

    def tool_calls(self) -> List[AgentStep]:
        return [s for s in self.steps if s.kind == "action"]

    def tool_sequence(self) -> List[str]:
        """The ordered tool names invoked (the Fig. 4 decomposition)."""
        return [s.tool_name for s in self.tool_calls() if s.tool_name]

    def scratchpad(self) -> str:
        lines = []
        for step in self.steps:
            if step.kind == "thought":
                lines.append(f"Thought: {step.content}")
            elif step.kind == "action":
                lines.append(f"Action: {step.tool_name}({step.arguments})")
            elif step.kind == "observation":
                lines.append(f"Observation: {step.content}")
            elif step.kind == "error":
                lines.append(f"Observation (error): {step.content}")
            elif step.kind == "final":
                lines.append(f"Final Answer: {step.content}")
        return "\n".join(lines)


@dataclass
class AgentResult:
    """What :meth:`ReActAgent.run` returns."""

    answer: str
    trace: AgentTrace
    steps_used: int
    succeeded: bool


@dataclass
class BrainContext:
    """Everything a brain sees when deciding the next step."""

    user_message: str
    registry: ToolRegistry
    trace: AgentTrace
    state: Dict[str, Any]
    last_observation: Optional[str] = None


class Brain:
    """Reasoning policy interface."""

    def decide(self, context: BrainContext) -> Decision:
        raise NotImplementedError


class ScriptedBrain(Brain):
    """Replays a fixed list of decisions (for tests and demos)."""

    def __init__(self, decisions: List[Decision]):
        self._decisions = list(decisions)
        self._cursor = 0

    def decide(self, context: BrainContext) -> Decision:
        if self._cursor >= len(self._decisions):
            return FinalAnswer(
                thought="script exhausted", answer="(no further steps)"
            )
        decision = self._decisions[self._cursor]
        self._cursor += 1
        return decision


class ReActAgent:
    """Runs the ReAct loop over a tool registry with a pluggable brain.

    Args:
        registry: the tools available to the agent.
        brain: the reasoning policy.
        model: if given, each reasoning step is metered as a simulated call.
        clock, ledger: accounting sinks for the metered reasoning calls.
        max_steps: hard cap on tool invocations per run.
        system_prompt: preamble of the metered agent prompt.
        tracer: observability tracer; each run becomes an ``agent.run``
            span with ``agent.step`` children wrapping the Thought /
            Action / Observation cycle and ``tool.invoke`` spans around
            tool execution.
    """

    def __init__(
        self,
        registry: ToolRegistry,
        brain: Brain,
        model: Optional[ModelCard] = None,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[UsageLedger] = None,
        max_steps: int = 12,
        system_prompt: str = DEFAULT_SYSTEM_PROMPT,
        tracer=None,
    ):
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.registry = registry
        self.brain = brain
        self.max_steps = max_steps
        self.system_prompt = system_prompt
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._reasoning_client: Optional[SimulatedLLMClient] = None
        if model is not None:
            if not model.supports_reasoning:
                raise ValueError(
                    f"model {model.name!r} is not reasoning-capable; "
                    "pick a card with supports_reasoning=True"
                )
            self._reasoning_client = SimulatedLLMClient(
                model, clock=clock, ledger=ledger, tracer=self.tracer
            )

    def _meter_step(self, user_message: str, trace: AgentTrace) -> None:
        if self._reasoning_client is None:
            return
        preamble, prompt = agent_prompt_parts(
            self.system_prompt,
            self.registry.render_block(),
            trace.scratchpad(),
            user_message,
        )
        self._reasoning_client.complete(
            CompletionRequest(prompt=prompt, preamble=preamble,
                              operation="agent")
        )

    def run(self, user_message: str,
            state: Optional[Dict[str, Any]] = None) -> AgentResult:
        """Process one user request to completion (or to the step cap)."""
        trace = AgentTrace()
        state = state if state is not None else {}
        last_observation: Optional[str] = None
        tracer = self.tracer

        with tracer.span(
            "agent.run", SpanKind.AGENT, clock=self.clock,
            max_steps=self.max_steps,
        ) as run_span:
            for step_number in range(self.max_steps):
                with tracer.span(
                    "agent.step", SpanKind.AGENT, clock=self.clock,
                    step=step_number,
                ):
                    self._meter_step(user_message, trace)
                    decision = self.brain.decide(
                        BrainContext(
                            user_message=user_message,
                            registry=self.registry,
                            trace=trace,
                            state=state,
                            last_observation=last_observation,
                        )
                    )
                    trace.append(
                        AgentStep(kind="thought", content=decision.thought)
                    )
                    if tracer.enabled:
                        tracer.event(
                            "agent.thought", SpanKind.AGENT,
                            clock=self.clock,
                            chars=len(decision.thought),
                        )

                    if isinstance(decision, FinalAnswer):
                        trace.append(
                            AgentStep(kind="final", content=decision.answer)
                        )
                        if tracer.enabled:
                            run_span.set_attribute(
                                "steps_used", step_number + 1
                            )
                            run_span.set_attribute("succeeded", True)
                        return AgentResult(
                            answer=decision.answer,
                            trace=trace,
                            steps_used=step_number + 1,
                            succeeded=True,
                        )

                    trace.append(
                        AgentStep(
                            kind="action",
                            content=decision.thought,
                            tool_name=decision.tool_name,
                            arguments=dict(decision.arguments),
                        )
                    )
                    try:
                        tool_obj = self.registry.get(decision.tool_name)
                        with tracer.span(
                            "tool.invoke", SpanKind.TOOL, clock=self.clock,
                            tool=decision.tool_name,
                        ):
                            result = tool_obj.invoke(
                                decision.arguments, agent=self
                            )
                        last_observation = str(result)
                        trace.append(
                            AgentStep(
                                kind="observation", content=last_observation
                            )
                        )
                        if tracer.enabled:
                            tracer.event(
                                "agent.observation", SpanKind.AGENT,
                                clock=self.clock,
                                chars=len(last_observation),
                            )
                    except ToolError as exc:
                        last_observation = f"tool error: {exc}"
                        trace.append(
                            AgentStep(kind="error", content=last_observation)
                        )
                        if tracer.enabled:
                            tracer.event(
                                "agent.error", SpanKind.AGENT,
                                clock=self.clock,
                                tool=decision.tool_name,
                            )
                    except Exception as exc:  # tools are user code; stay alive
                        last_observation = f"{type(exc).__name__}: {exc}"
                        trace.append(
                            AgentStep(kind="error", content=last_observation)
                        )
                        if tracer.enabled:
                            tracer.event(
                                "agent.error", SpanKind.AGENT,
                                clock=self.clock,
                                tool=decision.tool_name,
                            )

            if tracer.enabled:
                run_span.set_attribute("steps_used", self.max_steps)
                run_span.set_attribute("succeeded", False)
        return AgentResult(
            answer=(
                "I could not complete the request within "
                f"{self.max_steps} steps."
            ),
            trace=trace,
            steps_used=self.max_steps,
            succeeded=False,
        )
