"""Turn progress: a per-turn event buffer plus span-derived events.

A chat turn's execution progress reaches clients in two layers:

1. **Live events** — the executor's ``on_event`` hook fires
   ``plan_start`` / ``record_processed`` / ``operator_flush`` /
   ``plan_end`` dictionaries while the pipeline runs; the session's
   ``turn_start`` / ``turn_end`` lifecycle events bracket them.  The
   turn appends them all to a :class:`ProgressBuffer`, and
   ``GET .../turns/<id>/events`` serves (and long-polls) windows of it.
2. **Span-derived events** — when the turn finishes with a recorded
   trace, :func:`progress_events_from_trace` summarizes the tracer
   spans into ``span`` events (operator timings, LLM call counts) that
   are appended after the live stream, so a client that connects late —
   or reads a turn restored from disk — still sees where the time went.

Writers and readers hold the server's
:class:`~repro.server.serving.ServingLock`; a long-poll sleeps on it,
giving it up until an event lands.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.columns import plain_trace
from repro.server.serving import ServingLock

__all__ = ["ProgressBuffer", "progress_events_from_trace"]

#: Span kinds worth surfacing as progress events (operator work and LLM
#: calls; per-record micro-spans stay in the full trace).
_EVENT_KINDS = ("plan", "operator", "llm", "chat", "agent")


class ProgressBuffer:
    """An append-only event log with blocking reads (one per turn).

    Writers call :meth:`emit` (the turn, via the session's ``on_event``
    hook) and :meth:`close` when the turn is over; readers call
    :meth:`read` with the offset of the first event they have not seen
    yet, optionally waiting for news on ``lock`` (the store's serving
    lock; a buffer of its own makes one).  Events are plain dicts and
    are copied on the way in and out, so neither side can mutate the
    other's view.
    """

    def __init__(self, lock: Optional[ServingLock] = None):
        self._lock = lock if lock is not None else ServingLock()
        self._events: List[Dict[str, Any]] = []
        self._closed = False

    def emit(self, event: Dict[str, Any]) -> None:
        """Append one event and wake any waiting readers."""
        self.extend([event])

    def extend(self, events: List[Dict[str, Any]]) -> None:
        """Append many events at once (the span-derived tail)."""
        if self._closed:
            return
        self._events.extend(dict(event) for event in events)
        self._lock.notify()

    def close(self) -> None:
        """Mark the stream complete; readers stop waiting."""
        self._closed = True
        self._lock.notify()

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._events)

    def read(
        self,
        offset: int = 0,
        wait_seconds: Optional[float] = None,
    ) -> Tuple[List[Dict[str, Any]], bool, int]:
        """Events from ``offset`` on, as ``(events, done, next_offset)``.

        When ``wait_seconds`` is set and nothing new is available yet,
        blocks until an event lands, the stream closes, or the wait
        times out — the long-poll the events endpoint exposes.
        ``next_offset`` is what the client passes next time.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if wait_seconds is not None:
            self._lock.wait(
                lambda: offset < len(self._events) or self._closed,
                wait_seconds)
        done = self._closed  # read first: every event precedes close()
        events = [dict(e) for e in self._events[offset:]]
        return events, done, offset + len(events)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every event so far (persisted with the turn on disk)."""
        return [dict(e) for e in self._events]


def progress_events_from_trace(
    trace: Optional[Dict[str, Any]],
    limit: int = 200,
) -> List[Dict[str, Any]]:
    """Summarize a stored trace into ``span`` progress events.

    ``trace`` is the columnar payload a
    :class:`~repro.obs.registry.RunSnapshot` stores, or its row layout
    (``to_plain_json`` output: a flat ``spans`` list).  Each surfaced
    span becomes::

        {"type": "span", "name": ..., "kind": ..., "start": ...,
         "duration": ..., "lane": ...}

    Only plan/operator/llm/chat/agent spans are surfaced, in recorded
    order, capped at ``limit`` (with a trailing ``truncated`` event
    naming how many were dropped) so one enormous run cannot bloat a
    turn's event stream.
    """
    if not trace:
        return []
    spans = plain_trace(trace).get("spans") or []
    events: List[Dict[str, Any]] = []
    dropped = 0
    for span in spans:
        kind = str(span.get("kind", ""))
        if kind not in _EVENT_KINDS:
            continue
        if len(events) >= limit:
            dropped += 1
            continue
        events.append({
            "type": "span",
            "name": span.get("name"),
            "kind": kind,
            "start": span.get("start"),
            "duration": span.get("duration"),
            "lane": span.get("lane"),
        })
    if dropped:
        events.append({"type": "truncated", "dropped_spans": dropped})
    return events
