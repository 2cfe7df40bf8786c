"""pz-lint ``OB4xx``: observability conventions over finalized artifacts.

The tracing subsystem (:mod:`repro.obs`) has naming and attribute
conventions — span names are lowercase dotted identifiers
(``layer.action``), every span carries a kind from the
:class:`~repro.obs.trace.SpanKind` vocabulary, and well-known span names
must carry the attributes their consumers rely on (the critical-path
analyzer reads ``workers`` off ``pipeline.stage``; hotspot aggregation
reads ``op`` off operator spans).  ``lint_trace`` checks a finalized
:class:`~repro.obs.trace.Trace` against those conventions so new
instrumentation can't silently break the analysis and export layers.

``lint_provenance`` (``OB402``) does the same for finalized
:class:`~repro.obs.provenance.ProvenanceGraph` objects: drop events name
a reason from the :data:`~repro.obs.provenance.DROP_REASONS` enum and
eliminate exactly one record, emit events derive at least one child, and
every event references live node ids — so a new operator's
instrumentation can't silently corrupt ``why``/``why_not`` answers.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from repro.analysis.concurrency import wall_clock_reads
from repro.analysis.diagnostics import (
    Emitter,
    LintConfig,
    LintResult,
    Severity,
    register_rule,
)
from repro.obs.trace import SpanKind, Trace

register_rule(
    "OB401", "span-conventions",
    "a span violates naming/kind/attribute conventions "
    "(dotted lowercase name, known kind, required attributes)",
    Severity.WARNING,
)

register_rule(
    "OB402", "provenance-conventions",
    "a provenance event violates graph conventions (unknown drop "
    "reason, wrong parent/child arity, dead node reference, or a "
    "pass-through emit without evidence attributes)",
    Severity.WARNING,
)

register_rule(
    "OB403", "telemetry-conventions",
    "engine/executor source reads the wall clock directly instead of "
    "going through repro.obs.telemetry (wall_now/wall_perf), blurring "
    "the virtual-clock/wall-clock boundary",
    Severity.ERROR,
)

#: ``layer.action`` (at least two dotted lowercase segments).
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$")

_KNOWN_KINDS = frozenset(
    value for name, value in vars(SpanKind).items()
    if not name.startswith("_") and isinstance(value, str)
)

#: Attributes the analysis/export layers read off well-known span names.
_REQUIRED_ATTRS = {
    "op.open": ("op",),
    "op.process": ("op",),
    "op.batch": ("op",),
    "op.close": ("op",),
    "op.scan": ("op",),
    "llm.call": ("model", "operation"),
    "pipeline.stage": ("stage", "workers"),
    "pipeline.bundle": ("seq",),
    "plan.run": ("executor",),
}


def lint_trace(
    trace: Trace,
    config: Optional[LintConfig] = None,
    result: Optional[LintResult] = None,
) -> LintResult:
    """Check every span of ``trace`` against the OB4xx conventions."""
    result = result if result is not None else LintResult()
    emitter = Emitter(result, config)
    for span in trace.spans:
        location = f"span#{span.span_id}({span.name})"
        if not _NAME_RE.match(span.name):
            emitter.emit(
                "OB401",
                f"span name {span.name!r} is not a dotted lowercase "
                "identifier",
                location,
                hint="name spans '<layer>.<action>', e.g. 'op.process'",
            )
        if span.kind not in _KNOWN_KINDS:
            emitter.emit(
                "OB401",
                f"span kind {span.kind!r} is not in the SpanKind "
                "vocabulary",
                location,
                hint=f"use one of {sorted(_KNOWN_KINDS)}",
            )
        for attr in _REQUIRED_ATTRS.get(span.name, ()):
            if attr not in span.attributes:
                emitter.emit(
                    "OB401",
                    f"span {span.name!r} is missing its required "
                    f"attribute {attr!r}",
                    location,
                    hint="the analysis/export layers read this attribute",
                )
    return result


def lint_provenance(
    graph,
    config: Optional[LintConfig] = None,
    result: Optional[LintResult] = None,
) -> LintResult:
    """Check a finalized :class:`ProvenanceGraph` against OB402.

    Accepts a :class:`~repro.obs.provenance.ProvenanceGraph` or its
    ``to_dict()`` payload (so a ``provenance.json`` loaded from a run
    registry can be linted without reconstructing the object).
    """
    from repro.obs.provenance import DROP_REASONS

    result = result if result is not None else LintResult()
    emitter = Emitter(result, config)
    payload = graph if isinstance(graph, dict) else graph.to_dict()
    node_ids = {node["id"] for node in payload["nodes"]}

    for index, event in enumerate(payload["events"]):
        label = event.get("op_label", event.get("op"))
        location = f"event#{index}({label})"
        parents = event.get("parents", [])
        children = event.get("children", [])
        for ref in list(parents) + list(children):
            if ref not in node_ids:
                emitter.emit(
                    "OB402",
                    f"event references node {ref}, which is not in the "
                    "graph",
                    location,
                    hint="register records via source() or emit() before "
                         "referencing them",
                )
        if event["kind"] == "drop":
            if event.get("reason") not in DROP_REASONS:
                emitter.emit(
                    "OB402",
                    f"drop reason {event.get('reason')!r} is not in the "
                    "DropReason enum",
                    location,
                    hint=f"use one of {sorted(DROP_REASONS)}",
                )
            if len(parents) != 1 or children:
                emitter.emit(
                    "OB402",
                    "a drop event must eliminate exactly one record "
                    f"(got {len(parents)} parents, {len(children)} "
                    "children)",
                    location,
                    hint="report one drop() per eliminated record",
                )
        elif event["kind"] == "emit":
            if event.get("reason"):
                emitter.emit(
                    "OB402",
                    "an emit event must not carry a drop reason",
                    location,
                    hint="reasons belong on drop events",
                )
            if not children:
                emitter.emit(
                    "OB402",
                    "an emit event must derive at least one child",
                    location,
                    hint="use drop() when a record is eliminated",
                )
            # Empty-input aggregates legitimately emit with no parents
            # and mark the case with folded=0.
            if not parents and event.get("attrs", {}).get("folded") != 0:
                emitter.emit(
                    "OB402",
                    "an emit event must have at least one parent",
                    location,
                    hint="only empty-input aggregates (folded=0) may "
                         "emit parentless records",
                )
            if (parents and parents == children
                    and not event.get("attrs")
                    and not event.get("llm")):
                emitter.emit(
                    "OB402",
                    "a pass-through emit carries no evidence "
                    "(no attributes, no llm summary)",
                    location,
                    hint="record why the record survived (verdict, "
                         "position, score, ...)",
                )
        else:
            emitter.emit(
                "OB402",
                f"unknown event kind {event['kind']!r}",
                location,
                hint="events are 'emit' or 'drop'",
            )

    for output_id in payload["output_ids"]:
        if output_id not in node_ids:
            emitter.emit(
                "OB402",
                f"output id {output_id} is not a node in the graph",
                "outputs",
                hint="outputs must be finalized graph nodes",
            )
    return result


# ---------------------------------------------------------------------------
# OB403: the wall-clock boundary (telemetry conventions)
# ---------------------------------------------------------------------------

#: Path fragments that put a file in OB403's jurisdiction (the package's
#: own source, however the linter was pointed at it).
_IN_SCOPE_FRAGMENT = "repro/"

#: The one module sanctioned to read the wall clock: the telemetry layer
#: itself (its reads carry ``# nondet: ok(...)`` for CC504 already).
_EXEMPT_SUFFIX = "obs/telemetry.py"


def _wallclock_pragma(source_lines, lineno: int) -> bool:
    if not 1 <= lineno <= len(source_lines):
        return False
    return "# wallclock: ok(" in source_lines[lineno - 1]


def lint_source_wallclock(
    source: str,
    filename: str = "<program>",
    config: Optional[LintConfig] = None,
    result: Optional[LintResult] = None,
) -> LintResult:
    """OB403: direct wall-clock reads outside the telemetry layer.

    Only the package's own modules are in scope (the normalized
    ``filename`` contains ``repro/``) — generated programs and user
    scripts are CC504's concern, not a layering question.  The
    telemetry module itself is exempt, and any individual read can be
    waived with a ``# wallclock: ok(<reason>)`` pragma on its line.
    """
    result = result if result is not None else LintResult()
    normalized = filename.replace("\\", "/")
    if _IN_SCOPE_FRAGMENT not in normalized:
        return result
    if normalized.endswith(_EXEMPT_SUFFIX):
        return result
    try:
        module = ast.parse(source, filename=filename)
    except SyntaxError:
        return result  # CG301's problem, not ours
    emitter = Emitter(result, config)
    source_lines = source.splitlines()
    for node, read in wall_clock_reads(module):
        if _wallclock_pragma(source_lines, node.lineno):
            continue
        emitter.emit(
            "OB403",
            f"direct wall-clock read {read} outside the telemetry layer",
            location=f"{filename}:{node.lineno}",
            hint="route operational timing through repro.obs.telemetry "
                 "(wall_now/wall_perf) or waive with "
                 "'# wallclock: ok(<reason>)'",
        )
    return result
