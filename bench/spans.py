"""In-memory spans recorded from outside the program (``--trace 1`` only).

The benchmark wraps each layer's *public* entry point (``SessionStore.
run_turn``, ``PalimpChatSession.chat``, ``Optimizer.optimize``, ...) with a
timing shim for the duration of a traced pass and restores the original
afterwards; nothing under ``src/`` is edited and untraced runs never load
this module.  A span is ``[id, name, start, end, parent, op]``: ``parent``
is the span that caused it and ``op`` the turn or iteration it belongs to.
Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional

ID, NAME, START, END, PARENT, OP = range(6)


class SpanRecorder:
    def __init__(self):
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: List[tuple] = []
        #: Open spans other threads may adopt as parent, by key: the HTTP
        #: client's request span (keyed by tenant) for the server's handler
        #: thread, the executor's span for its worker threads.
        self.adoptable: Dict[str, int] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op, adopt_from: Optional[str],
              adopt_as: Optional[str]) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        else:
            parent = self.adoptable.get(adopt_from)
        span = [next(self._ids), name, time.perf_counter(), 0.0, parent, op]
        stack.append(span)
        if adopt_as is not None:
            self.adoptable[adopt_as] = span[ID]
        return span

    def _close(self, span: list, adopt_as: Optional[str]) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        if adopt_as is not None:
            self.adoptable.pop(adopt_as, None)
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, op=None, adopt_as: Optional[str] = None):
        span = self._open(name, op, None, adopt_as)
        try:
            yield span
        finally:
            self._close(span, adopt_as)

    def wrap(self, owner, attr: str, name: str,
             adopt: Optional[Callable[[tuple], Optional[str]]] = None,
             adopt_as: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a span-recording shim.

        ``adopt(args)`` names the :attr:`adoptable` key whose span is the
        parent when the call arrives on a thread with no open span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        def shim(*args, **kwargs):
            span = recorder._open(
                name, None, adopt(args) if adopt is not None else None,
                adopt_as)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(span, adopt_as)

        shim.__name__ = getattr(original, "__name__", attr)
        shim.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, shim)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def finish(self) -> "SpanTree":
        return SpanTree(sorted(self.spans, key=lambda s: s[ID]))


class SpanTree:
    """Finished spans with parent links resolved."""

    def __init__(self, spans: List[list]):
        self.spans = spans
        self.by_id = {span[ID]: span for span in spans}
        self.children: Dict[int, List[list]] = {}
        for span in spans:
            if span[PARENT] is not None:
                self.children.setdefault(span[PARENT], []).append(span)
        for span in spans:  # ids ascend, so a parent's op is set first
            parent = self.by_id.get(span[PARENT])
            if span[OP] is None and parent is not None:
                span[OP] = parent[OP]

    @staticmethod
    def duration(span: list) -> float:
        return span[END] - span[START]

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[NAME] == name]

    def prefixed(self, prefix: str) -> List[list]:
        return [s for s in self.spans if s[NAME].startswith(prefix)]

    def self_time(self, span: list) -> float:
        """Duration minus the union of the children's intervals (children
        on worker threads overlap, so their durations cannot be summed)."""
        covered = 0.0
        edge = span[START]
        for child in sorted(self.children.get(span[ID], ()),
                            key=lambda s: s[START]):
            start = max(child[START], edge)
            end = min(child[END], span[END])
            if end > start:
                covered += end - start
                edge = end
        return self.duration(span) - covered

    def below(self, span: list, name: str) -> float:
        """Summed duration of the descendants called ``name``."""
        total = 0.0
        pending = list(self.children.get(span[ID], ()))
        while pending:
            child = pending.pop()
            if child[NAME] == name:
                total += self.duration(child)
            else:
                pending.extend(self.children.get(child[ID], ()))
        return total

    def to_payload(self) -> List[dict]:
        origin = min((s[START] for s in self.spans), default=0.0)
        return [
            {
                "id": s[ID], "name": s[NAME], "parent": s[PARENT],
                "op": s[OP],
                "start_us": round((s[START] - origin) * 1e6, 1),
                "end_us": round((s[END] - origin) * 1e6, 1),
                "self_us": round(self.self_time(s) * 1e6, 1),
            }
            for s in self.spans
        ]


# ----------------------------------------------------------------------
# Which entry points get a span, layer by layer.
# ----------------------------------------------------------------------

EXECUTE_KEY = "execution.execute"


def wrap_program(recorder: SpanRecorder) -> None:
    """Wrap the peel: HTTP turn > run_turn > chat > {plan_requests,
    Execute > {optimize, <X>Executor.execute > client calls},
    RunRegistry.save}."""
    import repro.chat.intent as intent
    from repro.chat.session import PalimpChatSession
    from repro.execution.execute import ExecutionEngine
    from repro.execution.executors import SequentialExecutor
    from repro.execution.pipeline import PipelinedExecutor
    from repro.execution.sharded import ShardedExecutor
    from repro.llm.client import SimulatedLLMClient
    from repro.obs.registry import RunRegistry
    from repro.optimizer.optimizer import Optimizer
    from repro.server.store import SessionStore

    # run_turn(self, tenant_id, ...) arrives on the server's handler
    # thread; its parent is the client's request span for that tenant.
    recorder.wrap(SessionStore, "run_turn", "server.store.run_turn",
                  adopt=lambda args: f"tenant:{args[1]}")
    recorder.wrap(PalimpChatSession, "chat", "chat.session.chat")
    recorder.wrap(intent, "plan_requests", "chat.intent.plan_requests")
    recorder.wrap(ExecutionEngine, "execute", "execution.engine.execute")
    recorder.wrap(Optimizer, "optimize", "optimizer.optimize")
    for owner, kind in ((SequentialExecutor, "sequential"),
                        (PipelinedExecutor, "pipelined"),
                        (ShardedExecutor, "sharded")):
        recorder.wrap(owner, "execute", f"execution.{kind}.execute",
                      adopt_as=EXECUTE_KEY)
    # Worker threads of the threaded executors call the client with no
    # open span of their own: the running executor adopts them.
    for method in ("judge", "extract", "run_batch", "complete"):
        recorder.wrap(SimulatedLLMClient, method, f"llm.client.{method}",
                      adopt=lambda args: EXECUTE_KEY)
    recorder.wrap(RunRegistry, "save", "obs.registry.save")


@contextmanager
def program_spans() -> Iterable[SpanRecorder]:
    recorder = SpanRecorder()
    wrap_program(recorder)
    try:
        yield recorder
    finally:
        recorder.unwrap_all()
