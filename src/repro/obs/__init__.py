"""``repro.obs`` — end-to-end observability for the reproduction.

The paper's chat layer reports per-operator cost, runtime, and quality
statistics after execution; this package generalizes that reporting into a
proper observability subsystem:

* :mod:`repro.obs.trace` — :class:`Tracer` / :class:`Span`: nested
  spans timed by the :class:`VirtualClock`
  (never wall time), attributed to the same lanes the clock charges, and
  canonicalized into a deterministic :class:`Trace` tree.
* :mod:`repro.obs.metrics` — a run's metrics are a plain dict (counters
  add, gauges keep the last write, distributions are summarized by
  ``summarize``) snapshotted into
  :class:`~repro.execution.stats.ExecutionStats`.
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON and plain-JSON
  trace files.
* :mod:`repro.obs.analyze` — critical-path analysis of pipelined runs and
  per-operator hotspot aggregation.
* :mod:`repro.obs.render` — text tree / flame renderers for terminals.
* :mod:`repro.obs.provenance` — record-level derivation graphs with
  ``why`` / ``why_not`` explanations, canonicalized like traces.
* :mod:`repro.obs.registry` — the persistent run registry
  (``.repro/runs/``) with list/load/diff over recorded executions.
* :mod:`repro.obs.columns` — the columnar layout a recorded run keeps
  its trace and provenance graph in, and the row views rendered from it.
* :mod:`repro.obs.telemetry` — the *wall-clock* operational layer for
  the service tier: request-correlated structured JSONL logs, the
  ``OpsMetrics`` dict behind ``GET /metrics``, the ``SLOS`` table over
  its sliding windows, and the ``repro top`` dashboard renderer.  Strictly
  separate from the virtual-clock tracer above — it never feeds any
  deterministic artifact (records, stats, traces, provenance).

Tracing is zero-cost when disabled: every instrumented component defaults
to the shared :data:`NULL_TRACER`, whose ``span()`` is a reusable no-op
context manager, and hot paths guard attribute construction behind
``tracer.enabled``.  Two runs of the same plan at any worker count produce
identical span trees and durations — ids come from a canonical
finalization pass and times from the virtual clock.
"""

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanKind,
    Trace,
    Tracer,
)
from repro.obs.export import (
    to_chrome_trace,
    to_plain_json,
    write_chrome_trace,
    write_plain_json,
)
from repro.obs.analyze import (
    CriticalPathReport,
    StageReport,
    aggregate_ops,
    analyze_critical_path,
)
from repro.obs.render import render_flame, render_tree
from repro.obs.provenance import (
    DROP_REASONS,
    DropReason,
    NULL_PROVENANCE,
    ProvenanceError,
    ProvenanceGraph,
    ProvenanceRecorder,
    render_why,
    render_why_not,
)
from repro.obs.registry import (
    DEFAULT_RUNS_DIR,
    ResultHandle,
    RunDiff,
    RunRegistry,
    RunSnapshot,
    diff_runs,
)
from repro.obs.telemetry import (
    SLOS,
    OpsMetrics,
    Telemetry,
    TelemetryLog,
    bind_context,
    current_context,
    render_dashboard,
    wall_now,
    wall_perf,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanKind",
    "Trace",
    "Tracer",
    "to_chrome_trace",
    "to_plain_json",
    "write_chrome_trace",
    "write_plain_json",
    "CriticalPathReport",
    "StageReport",
    "aggregate_ops",
    "analyze_critical_path",
    "render_flame",
    "render_tree",
    "DROP_REASONS",
    "DropReason",
    "NULL_PROVENANCE",
    "ProvenanceError",
    "ProvenanceGraph",
    "ProvenanceRecorder",
    "render_why",
    "render_why_not",
    "DEFAULT_RUNS_DIR",
    "ResultHandle",
    "RunDiff",
    "RunRegistry",
    "RunSnapshot",
    "diff_runs",
    "SLOS",
    "OpsMetrics",
    "Telemetry",
    "TelemetryLog",
    "bind_context",
    "current_context",
    "render_dashboard",
    "wall_now",
    "wall_perf",
]
