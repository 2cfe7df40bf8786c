"""Trace exporters: Chrome ``trace_event`` JSON and plain JSON.

The Chrome format loads in ``about://tracing`` / Perfetto: one complete
``"X"`` event per span with microsecond timestamps, ``pid`` 0, and the
virtual-clock *lane* as ``tid`` so the timeline rows mirror the lanes the
:class:`~repro.llm.clock.VirtualClock` charged.  Lane 0 is the
orchestrator / sequential lane; lanes 1..N are workers.

The plain-JSON format is the canonical tree serialization
(``Trace.to_dict`` plus metadata) used by tooling that wants parent/child
structure without reconstructing it from timestamps.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.persist import write_json
from repro.obs.trace import Trace

_MICROS = 1_000_000


def _lane_label(lane: int) -> str:
    return "lane 0 (orchestrator)" if lane == 0 else f"lane {lane} (worker)"


def to_chrome_trace(trace: Trace,
                    metrics: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Render a finalized trace as a Chrome ``trace_event`` JSON object."""
    events: List[Dict[str, Any]] = []
    lanes = sorted({span.lane for span in trace.spans})
    for lane in lanes:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": lane,
            "args": {"name": _lane_label(lane)},
        })
    for span in trace.spans:
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "kind": span.kind,
        }
        args.update(span.attributes)
        events.append({
            "name": span.name,
            "cat": span.kind,
            "ph": "X",
            "ts": round(span.start * _MICROS, 3),
            "dur": round(span.duration * _MICROS, 3),
            "pid": 0,
            "tid": span.lane,
            "args": args,
        })
    other_data: Dict[str, Any] = {"span_count": len(trace)}
    if metrics:
        other_data["metrics"] = metrics
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def to_plain_json(trace: Trace,
                  metrics: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Render a finalized trace as plain JSON (flat span list with ids)."""
    payload = {
        "format": "repro.obs/v1",
        "makespan_seconds": round(trace.makespan, 9),
        "span_count": len(trace),
        "spans": [span.to_dict() for span in trace.spans],
    }
    if metrics:
        payload["metrics"] = metrics
    return payload


def write_chrome_trace(trace: Trace, path: str,
                       metrics: Optional[Dict[str, Any]] = None) -> None:
    write_json(path, to_chrome_trace(trace, metrics=metrics))


def write_plain_json(trace: Trace, path: str,
                     metrics: Optional[Dict[str, Any]] = None) -> None:
    write_json(path, to_plain_json(trace, metrics=metrics))
