"""Tracing core: spans, the tracer, and the deterministic trace tree.

Design constraints, in order of importance:

1. **Deterministic.**  Two runs of the same plan — at any worker count,
   under any schedule — must produce identical span trees and durations.
   All timestamps therefore come from the
   :class:`~repro.llm.clock.VirtualClock` (never wall time), spans are
   attributed to the clock *lane* that was charged, and span ids are
   assigned by a canonical finalization pass over the finished tree
   rather than by a live counter.  Siblings that carry a ``seq``
   attribute (pipeline bundles) are ordered by it; everything else keeps
   its append order.
2. **Zero-cost when disabled.**  The shared :data:`NULL_TRACER` answers
   ``span()`` with one reusable no-op context manager and reports
   ``enabled = False`` so hot paths can skip building attribute dicts.
3. **Reconcilable.**  Operator spans are created by the same meters that
   build :class:`~repro.execution.stats.OperatorStats`, timed by the same
   clock deltas, so per-span durations sum to the per-operator times the
   stats report.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.obs.columns import plain_trace

_SEQ_MISSING = float("inf")


class SpanKind:
    """Span taxonomy (the ``kind`` vocabulary; see docs/observability.md)."""

    CHAT = "chat"
    AGENT = "agent"
    TOOL = "tool"
    OPTIMIZE = "optimize"
    PLAN = "plan"
    STAGE = "stage"
    BUNDLE = "bundle"
    OPERATOR = "operator"
    LLM = "llm"
    INTERNAL = "internal"


class Span:
    """One timed, attributed node of a trace tree.

    ``start`` / ``end`` are virtual-clock seconds; ``lane`` is the clock
    lane the work was charged to; ``span_id`` / ``parent_id`` are assigned
    when the tree is finalized into a :class:`Trace`.
    """

    __slots__ = (
        "name", "kind", "start", "end", "lane",
        "attributes", "children", "span_id", "parent_id",
    )

    def __init__(self, name: str, kind: str = SpanKind.INTERNAL,
                 start: float = 0.0, end: Optional[float] = None,
                 lane: int = 0,
                 attributes: Optional[Dict[str, Any]] = None):
        self.name = name
        self.kind = kind
        self.start = start
        self.end = end
        self.lane = lane
        self.attributes: Dict[str, Any] = attributes or {}
        self.children: List["Span"] = []
        self.span_id: int = 0
        self.parent_id: int = 0

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def finish_at(self, end: float) -> None:
        """Pin the span's end time explicitly (e.g. to the run makespan).

        A span whose end is already set is left alone by the context
        manager's exit, so this wins over the default ``clock.now`` read.
        """
        self.end = end

    def self_time(self) -> float:
        """Duration not covered by child spans (clamped at zero)."""
        return max(
            0.0, self.duration - sum(c.duration for c in self.children)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "lane": self.lane,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} kind={self.kind} "
            f"dur={self.duration:.4f}s children={len(self.children)}>"
        )


def _canonical_order(children: List[Span]) -> List[Span]:
    """Deterministic sibling order: by ``seq`` attribute where present
    (a schedule appends bundle spans in the order it visits its lanes,
    not in input order), otherwise stable append order.  Lists of fewer
    than two spans are returned as they are."""
    if len(children) < 2:
        return children
    return sorted(
        children,
        key=lambda span: _seq_key(span.attributes.get("seq")),
    )


def _seq_key(seq: Any) -> float:
    if isinstance(seq, (int, float)) and not isinstance(seq, bool):
        return float(seq)
    return _SEQ_MISSING


class Trace:
    """A finalized, canonically ordered, id-assigned span tree.

    Building a ``Trace`` sorts every sibling list deterministically and
    assigns depth-first span ids starting at 1, so the same run always
    serializes to the same bytes whichever order its schedule visited
    the lanes in.
    """

    def __init__(self, roots: List[Span]):
        self.roots = _canonical_order(list(roots))
        #: The makespan a loaded trace recorded (see :meth:`from_dict`).
        self._makespan: Optional[float] = None
        self._spans: List[Span] = []
        counter = 0
        stack = [(root, 0) for root in reversed(self.roots)]
        while stack:
            span, parent_id = stack.pop()
            counter += 1
            span.span_id = counter
            span.parent_id = parent_id
            span.children = _canonical_order(span.children)
            self._spans.append(span)
            for child in reversed(span.children):
                stack.append((child, counter))

    @property
    def spans(self) -> List[Span]:
        """Every span, depth-first in canonical order."""
        return self._spans

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def find(self, name: str) -> List[Span]:
        return [span for span in self._spans if span.name == name]

    def first(self, name: str) -> Optional[Span]:
        for span in self._spans:
            if span.name == name:
                return span
        return None

    @property
    def makespan(self) -> float:
        """Latest end time across all spans (virtual seconds)."""
        if self._makespan is not None:
            return self._makespan
        return max((span.end or 0.0) for span in self._spans) if self._spans \
            else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"spans": [span.to_dict() for span in self._spans]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output, its plain-JSON
        export (:func:`repro.obs.export.to_plain_json`) or the columns a
        run registry stores (:func:`repro.obs.columns.trace_columns`).  Span
        ends are rebuilt from rounded starts and durations, so the
        makespan comes from the export when it records one."""
        payload = plain_trace(payload)
        by_id: Dict[int, Span] = {}
        roots: List[Span] = []
        for row in payload["spans"]:
            start = row["start"]
            span = Span(row["name"], kind=row["kind"], start=start,
                        end=start + row["duration"], lane=row["lane"],
                        attributes=dict(row["attributes"]))
            by_id[row["id"]] = span
            parent = by_id.get(row["parent_id"])
            (roots if parent is None else parent.children).append(span)
        trace = cls(roots)
        trace._makespan = payload.get("makespan_seconds")
        return trace

    def signature(self) -> str:
        """A canonical one-line-per-span serialization (determinism tests
        compare two runs' signatures byte for byte)."""
        lines = []
        for span in self._spans:
            attrs = ",".join(
                f"{k}={span.attributes[k]!r}"
                for k in sorted(span.attributes)
            )
            lines.append(
                f"{span.span_id}|{span.parent_id}|{span.name}|{span.kind}"
                f"|{span.start:.9f}|{span.duration:.9f}|{span.lane}|{attrs}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Trace(spans={len(self._spans)}, makespan={self.makespan:.3f}s)"


class _ActiveSpan:
    """Context manager for one live span (returned by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_span", "_clock")

    def __init__(self, tracer: "Tracer", span: Span, clock) -> None:
        self._tracer = tracer
        self._span = span
        self._clock = clock

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span.end is None:
            self._span.end = (
                self._clock.now if self._clock is not None
                else self._span.start
            )
        self._tracer._pop(self._span)


class _AttachedSpan:
    """Context manager that pushes an *existing* span onto the tracer's
    stack without touching its times — a schedule uses it to parent a
    lane's spans under a stage or shard span it opened earlier."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)


class Tracer:
    """Creates spans, tracks their nesting, and holds the root spans.

    A tracer belongs to one run (or one chat session) and is driven from
    the thread that runs it: the span stack is a plain list.

    Args:
        clock: default time source (a :class:`VirtualClock`); individual
            spans may override it — the execution layer passes its own
            context clock so traces follow whichever clock governs that
            layer.  With no clock at all, spans record zero durations but
            still carry structure and attributes.
    """

    enabled = True

    def __init__(self, clock=None):
        self.default_clock = clock
        self._roots: List[Span] = []
        self._stack: List[Span] = []

    # -- span stack ----------------------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()

    def current_span(self) -> Optional[Span]:
        stack = self._stack
        return stack[-1] if stack else None

    # -- span creation -----------------------------------------------------

    def _now_lane(self, clock) -> tuple:
        clock = clock if clock is not None else self.default_clock
        if clock is None:
            return 0.0, 0, None
        return clock.now, clock.current_lane, clock

    def _adopt(self, span: Span, parent: Optional[Span]) -> None:
        if parent is None:
            parent = self.current_span()
        if parent is None:
            self._roots.append(span)
        else:
            parent.children.append(span)

    def span(self, name: str, kind: str = SpanKind.INTERNAL,
             clock=None, parent: Optional[Span] = None,
             **attributes) -> _ActiveSpan:
        """Open a nested span; use as ``with tracer.span(...) as span:``.

        The parent defaults to the innermost open span (falling back to a
        new root); pass ``parent=`` explicitly when the logical parent is
        not the innermost one.
        """
        now, lane, clock = self._now_lane(clock)
        span = Span(name, kind=kind, start=now, lane=lane,
                    attributes=attributes or None)
        self._adopt(span, parent)
        return _ActiveSpan(self, span, clock)

    def event(self, name: str, kind: str = SpanKind.INTERNAL,
              clock=None, parent: Optional[Span] = None,
              **attributes) -> Span:
        """Record a zero-duration span (a point-in-time event)."""
        now, lane, _ = self._now_lane(clock)
        span = Span(name, kind=kind, start=now, end=now, lane=lane,
                    attributes=attributes or None)
        self._adopt(span, parent)
        return span

    def record(self, name: str, kind: str, start: float, end: float,
               lane: int, parent: Optional[Span] = None,
               **attributes) -> Span:
        """Record a completed leaf span with explicit times (the simulated
        LLM client uses this: it knows the exact latency it charged)."""
        span = Span(name, kind=kind, start=start, end=end, lane=lane,
                    attributes=attributes or None)
        self._adopt(span, parent)
        return span

    def start_span(self, name: str, kind: str = SpanKind.INTERNAL,
                   clock=None, parent: Optional[Span] = None,
                   **attributes) -> Span:
        """Create and adopt a span *without* pushing it on the span
        stack.  Used for spans that stay open while the schedule visits
        other lanes (a pipeline stage or shard span): the schedule
        ``attach()``-es to it per visit and finishes it explicitly with
        :meth:`Span.finish_at`."""
        now, lane, _ = self._now_lane(clock)
        span = Span(name, kind=kind, start=now, lane=lane,
                    attributes=attributes or None)
        self._adopt(span, parent)
        return span

    def attach(self, span: Optional[Span]):
        """Parent subsequent spans under ``span`` for the block.

        ``None`` (no span was created, e.g. tracing was off when the stage
        was built) degrades to a no-op context manager.
        """
        if span is None:
            return _NULL_SPAN
        return _AttachedSpan(self, span)

    def finish(self) -> Trace:
        """Finalize everything recorded so far into a canonical tree."""
        return Trace(self._roots)


class _NullSpan:
    """The do-nothing span: absorbs attribute writes, nests as itself."""

    __slots__ = ()

    name = ""
    kind = SpanKind.INTERNAL
    start = 0.0
    end = 0.0
    lane = 0
    duration = 0.0

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def finish_at(self, end: float) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-cost tracer: every call returns the shared no-op span."""

    enabled = False
    default_clock = None

    def span(self, name: str, kind: str = SpanKind.INTERNAL,
             clock=None, parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, kind: str = SpanKind.INTERNAL,
              clock=None, parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, kind: str, start: float, end: float,
               lane: int, parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def start_span(self, name: str, kind: str = SpanKind.INTERNAL,
                   clock=None, parent=None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def attach(self, span) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def finish(self) -> Trace:
        return Trace([])


#: Shared process-wide disabled tracer; instrumented components default to
#: this so tracing costs nothing unless a real tracer is wired in.
NULL_TRACER = NullTracer()
