"""The deterministic chat brain: natural language -> tool-call plan.

This module replaces the hosted reasoning model that drives Archytas in the
original demo (see DESIGN.md, substitutions).  It parses a user utterance
into an ordered list of :class:`~repro.agent.react.ToolCall` decisions — the
same decomposition behaviour Fig. 4 shows ("the agent reasons and may decide
to decompose a user question into several tasks required before execution")
— and the ReAct loop executes them one observation at a time.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from repro.agent.react import (
    Brain,
    BrainContext,
    Decision,
    FinalAnswer,
    ToolCall,
)
from repro.chat.workspace import PipelineWorkspace
from repro.obs.trace import NULL_TRACER, SpanKind
from repro.physical.options import SCALE_OUT_EXECUTORS

_STATE_KEY = "_palimpchat_pending"

# ---------------------------------------------------------------------------
# Slot extraction helpers.
# ---------------------------------------------------------------------------

_QUOTED_RE = re.compile(r"\"([^\"]+)\"|'([^']+)'")
_PATH_RE = re.compile(r"(?<![\w/])((?:\.{1,2})?/[\w./\-]+|[\w.\-]+/[\w./\-]+)")
_ARTICLES = frozenset({"the", "a", "an", "its", "their", "any", "all", "each",
                       "every", "whatever", "public", "publicly", "available",
                       "associated", "corresponding", "short"})

_FIELD_HINTS = {
    "url": "The public URL where the item can be accessed",
    "link": "The public URL where the item can be accessed",
    "name": "The name of the item",
    "description": "A short description of the item",
    "date": "The relevant date",
    "email": "The e-mail address",
    "price": "The price in dollars",
    "address": "The street address",
}


def _find_source(clause: str) -> Optional[str]:
    """A quoted string, path-like token, or registered dataset id."""
    quoted = _QUOTED_RE.search(clause)
    if quoted:
        return quoted.group(1) or quoted.group(2)
    path = _PATH_RE.search(clause)
    if path:
        return path.group(1).rstrip(".,;")
    from repro.core.sources import global_source_registry

    lowered = clause.lower()
    for dataset_id in global_source_registry().list_ids():
        if dataset_id.lower() in lowered:
            return dataset_id
    return None


def _identifier(phrase: str) -> str:
    words = [
        w
        for w in re.findall(r"[a-zA-Z][a-zA-Z0-9]*", phrase)
        if w.lower() not in _ARTICLES
    ]
    if not words:
        return ""
    return "_".join(w.lower() for w in words)


def _parse_field_list(text: str) -> List[str]:
    """'the dataset name, description and URL' -> [dataset_name, description, url]."""
    # Stop at clause boundaries that start a new intent.
    text = re.split(
        r"\b(?:for each|from|of the papers|of each)\b", text, maxsplit=1
    )[0]
    parts = re.split(r",|\band\b", text)
    fields = []
    for part in parts:
        # Keep only the head noun phrase: "url for any public dataset used
        # by the study" -> "url".
        head = re.split(
            r"\b(?:for|from|of|used|in|that|which|where|so)\b", part
        )[0]
        identifier = _identifier(head)
        if identifier and identifier not in fields:
            fields.append(identifier)
    return fields


def _field_description(identifier: str) -> str:
    for hint, description in _FIELD_HINTS.items():
        if hint in identifier:
            return description
    pretty = identifier.replace("_", " ")
    return f"The {pretty} extracted from the document"


def _camel(identifier: str) -> str:
    return "".join(part.capitalize() for part in identifier.split("_"))


# ---------------------------------------------------------------------------
# Intent anchors.
# ---------------------------------------------------------------------------

_ANCHORS: List[Tuple[str, re.Pattern]] = [
    ("load", re.compile(
        r"\b(load|upload|ingest|register)\b|\buse\b[^.]*\b(folder|directory|dataset|files)\b",
        re.I)),
    ("filter", re.compile(
        r"\b(filter|keep only|only keep|select only|interested in)\b"
        r"|\bpapers (?:that are )?about\b|\bdocuments about\b",
        re.I)),
    ("schema", re.compile(r"\bcreate (?:a |an )?schema\b", re.I)),
    ("extract", re.compile(r"\bextract(?:ing)?\b", re.I)),
    ("policy", re.compile(
        r"\b(maximi[sz]e|minimi[sz]e|prioriti[sz]e|optimi[sz]e for|cheapest"
        r"|optimization (?:goal|target))\b", re.I)),
    # Before "execute": "explain the last run" contains the word "run", so
    # this anchor must exist for containment suppression to veto execute.
    ("explain_run", re.compile(
        r"\bwhat took so long\b|\bwhy (?:was|is) (?:it|that|the run) "
        r"(?:so )?slow\b"
        r"|\b(?:explain|profile|analy[sz]e|break down)\b[^.]*"
        r"\b(?:last|previous|that|the) (?:run|execution)\b"
        r"|\bwhere did (?:all )?the time go\b|\bcritical path\b"
        r"|\bwhat was the bottleneck\b|\bbounding stage\b", re.I)),
    # Provenance questions — before "execute"/"show" so spans like "what
    # changed since the last run" suppress the contained "run" hit.
    ("why_not", re.compile(
        r"\bwhy (?:isn't|wasn't|aren't|weren't|is not|was not|didn't"
        r"|did not)\b"
        r"|\bwhat happened to\b"
        r"|\bwhy\b[^.?]*\bnot in the (?:output|results?)\b"
        r"|\bwhy (?:is|was)\b[^.?]*\b(?:dropped|filtered out|eliminated"
        r"|excluded|missing|removed)\b", re.I)),
    ("why_record", re.compile(
        r"\bwhy (?:is|was|are|were) (?!not\b|n't)(?:(?!\bnot\b)[^.?])*"
        r"\bin the (?:output|results?)\b"
        r"|\b(?:explain|how was|where did|where does) record\s*#?\d+"
        r"|\bprovenance of\b|\bderivation (?:tree|of)\b", re.I)),
    ("compare_runs", re.compile(
        r"\bwhat(?:'s| is| has)? changed? since (?:the )?(?:last|previous)"
        r" run\b"
        r"|\b(?:compare|diff)\b(?:\s+\w+){0,3}\s+runs\b"
        r"|\b(?:compare|diff)\b(?:\s+\w+){0,2}\s+(?:last|previous) run\b"
        r"|\bhow (?:do|did) the (?:two )?runs differ\b", re.I)),
    # Before "execute": "re-run" and "run it again" contain the word
    # "run", so this longer anchor must exist for containment suppression
    # to veto execute and route to the incremental re-run instead.
    ("rerun", re.compile(
        r"\bre-?run\b(?:[^.?]*\bupdated\b[^.?]*)?"
        r"|\brun (?:it|that|the pipeline) again\b"
        r"|\b(?:run|execute|recompute)\b[^.?]*\bupdated "
        r"(?:corpus|data|dataset|documents|files)\b"
        r"|\bincremental(?:ly)?\b[^.?]*\b(?:run|execution|re-?run)\b",
        re.I)),
    ("execute", re.compile(r"\b(run|execute|launch|process the)\b", re.I)),
    ("stats", re.compile(
        r"\bhow (?:much|long)\b|\bstatistics\b|\bstats\b|\bcosted\b"
        r"|\bwhat did (?:it|this) cost\b", re.I)),
    ("show", re.compile(
        r"\b(show|display|visuali[sz]e)\b|\bwhat (?:did you|was) (?:find|found|extracted)\b",
        re.I)),
    ("code", re.compile(r"\b(code|notebook|export|download)\b", re.I)),
    ("workers", re.compile(
        r"\b(?:use|with|set)\s+(\d+)\s+(?:parallel\s+)?workers?\b"
        r"|\bin parallel\b", re.I)),
    ("executor", re.compile(
        r"\b(?:sequential|parallel|pipelined|sharded|async(?:io)?)"
        r"\s+(?:executor|engine|execution|mode)\b"
        r"|\bexecution mode\b|\bexecutor\b|\bbatch size\b"
        r"|\b\d+\s+shards?\b|\bshard(?:ed)?\s+(?:the\s+)?(?:pipeline|execution)\b",
        re.I)),
    ("explain", re.compile(
        r"\b(explain|compare|what) (?:the )?(physical )?plans?\b"
        r"|\bplan space\b|\bwhich plan\b", re.I)),
    ("lint", re.compile(
        r"\blint\b|\b(?:validate|sanity[- ]check|check)\b[^.]*\bpipeline\b"
        r"|\bany (?:problems|mistakes|issues) (?:with|in)\b[^.]*\bpipeline\b",
        re.I)),
    ("reset", re.compile(r"\b(reset|start over|clear the pipeline)\b", re.I)),
    ("list", re.compile(r"\b(?:list|which|what) datasets\b", re.I)),
    ("describe", re.compile(r"\b(describe|explain) the pipeline\b", re.I)),
]


def _match_anchors(message: str) -> List[Tuple[int, str, re.Match]]:
    hits = []
    for intent, pattern in _ANCHORS:
        for match in pattern.finditer(message):
            hits.append((match.start(), intent, match))
    # Containment suppression: a hit strictly inside another intent's
    # longer match is a fragment of that phrase, not a request of its own
    # ("run" inside "explain the last run" must not trigger execute).
    hits = [
        hit for hit in hits
        if not any(
            other is not hit
            and other[1] != hit[1]
            and other[2].start() <= hit[2].start()
            and hit[2].end() <= other[2].end()
            and (other[2].end() - other[2].start())
            > (hit[2].end() - hit[2].start())
            for other in hits
        )
    ]
    hits.sort(key=lambda h: h[0])
    # Deduplicate overlapping same-intent hits.
    deduped: List[Tuple[int, str, re.Match]] = []
    for hit in hits:
        if deduped and deduped[-1][1] == hit[1]:
            continue
        deduped.append(hit)
    return deduped


def _clause_bounds(hits, index: int, message: str) -> str:
    start = hits[index][0]
    stop = hits[index + 1][0] if index + 1 < len(hits) else len(message)
    return message[start:stop]


_PREDICATE_LEADS = re.compile(
    r"(?:that (?:are|is)|which (?:are|is)|about|where|satisfying|related to)\s+",
    re.I,
)

# Trailing connectors that belong to the *next* request, not the predicate:
# "... about colorectal cancer, and I would like to" -> cut at the comma.
_PREDICATE_TAIL_RE = re.compile(
    r"[,;.]?\s*\b(?:and|then|also|next|afterwards)\b\s*(?:i|we|please|you)\b.*$",
    re.I | re.S,
)


def _trim_predicate(predicate: str) -> str:
    predicate = _PREDICATE_TAIL_RE.sub("", predicate)
    return predicate.strip().rstrip(".,;")


def _parse_filter(clause: str) -> Optional[str]:
    match = _PREDICATE_LEADS.search(clause)
    if match:
        predicate = clause[match.end():].strip()
        lead = match.group(0).strip().lower()
        # "that are about X" — the informative lead is the innermost one.
        inner = _PREDICATE_LEADS.match(predicate)
        while inner:
            lead = inner.group(0).strip().lower()
            predicate = predicate[inner.end():].strip()
            inner = _PREDICATE_LEADS.match(predicate)
        predicate = _trim_predicate(predicate)
        if not predicate:
            return None
        if lead.startswith(("about", "related")):
            return f"The documents are about {predicate}"
        return f"Documents that {predicate}"
    # Fallback: everything after the anchor verb.
    tail = re.sub(
        r"^\W*(filter|keep only|only keep|select only|interested in)\b\s*",
        "", clause, flags=re.I,
    ).strip().rstrip(".,;")
    return tail or None


def _parse_policy(clause: str) -> Optional[str]:
    lowered = clause.lower()
    if re.search(r"quality", lowered):
        return "quality"
    if re.search(r"cost|cheap|budget|money|dollar", lowered):
        return "cost"
    if re.search(r"time|fast|quick|latency|speed", lowered):
        return "runtime"
    return None


_SCHEMA_NAME_RE = re.compile(
    r"schema (?:called|named)\s+['\"]?(\w+)['\"]?", re.I
)
_EXTRACT_LIST_RE = re.compile(r"\bextract(?:ing)?\b\s*(.*)", re.I | re.S)

# Identifiers that are clause fragments rather than field names: verb
# tokens anywhere, or generic nouns standing alone ("dataset_name" is fine,
# a bare "dataset" is not a field).
_NON_FIELD_RE = re.compile(
    r"(?:^|_)(?:is|are|was|were|be|been|it|that)(?:_|$)"
    r"|^(?:dataset|datasets|data|information)$"
)

DEFAULT_DATASET_FIELDS = [
    ("name", "The name of the referenced dataset"),
    ("description", "A short description of the content of the dataset"),
    ("url", "The public URL where the dataset can be accessed"),
]


def _parse_extract(clause: str) -> Dict[str, Any]:
    """Derive schema name, fields, and cardinality from an extract clause."""
    lowered = clause.lower()
    one_to_many = bool(
        re.search(r"\b(any|all|every|each|whatever)\b", lowered)
        or re.search(r"\bdatasets\b", lowered)
    )
    name_match = _SCHEMA_NAME_RE.search(clause)
    schema_name = name_match.group(1) if name_match else None

    fields: List[Tuple[str, str]] = []
    list_match = _EXTRACT_LIST_RE.search(clause)
    if list_match:
        raw = list_match.group(1)
        parsed = _parse_field_list(raw)
        # Drop phrases that are not really fields ("whatever public dataset
        # is used by the study" is a clause, not a field list).
        parsed = [
            f for f in parsed
            if 0 < len(f) <= 30
            and f.count("_") <= 2
            and not _NON_FIELD_RE.search(f)
        ]
        fields = [(f, _field_description(f)) for f in parsed]

    if not fields:
        if "dataset" in lowered:
            fields = list(DEFAULT_DATASET_FIELDS)
            schema_name = schema_name or "ClinicalData"
        else:
            fields = [("value", "The extracted value")]
    if schema_name is None:
        schema_name = "Extracted" + _camel(fields[0][0])
    description = (
        f"A schema for extracting {', '.join(f for f, _ in fields)} "
        "from the documents."
    )
    return {
        "schema_name": schema_name,
        "schema_description": description,
        "fields": fields,
        "cardinality": "one_to_many" if one_to_many else "one_to_one",
    }


_RECORD_ID_RE = re.compile(r"(?:record|#)\s*#?(\d+)", re.I)
_SOURCE_TOKEN_RE = re.compile(r"\b([A-Za-z0-9][\w\-]*[._][\w.\-]*\w)\b")
_WHY_NOT_LEAD_RE = re.compile(
    r"^\W*(?:why (?:isn't|wasn't|aren't|weren't|is not|was not|didn't"
    r"|did not)|what happened to|why (?:is|was))\s*", re.I)


def _parse_record_id(clause: str) -> int:
    """'why is record 3 in the output' -> 3 (0 when unnumbered)."""
    match = _RECORD_ID_RE.search(clause)
    return int(match.group(1)) if match else 0


def _parse_source_ref(clause: str) -> str:
    """The source document a why-not question asks about.

    Prefers a quoted name, then a filename-looking token (contains
    ``_`` or ``.``), then the words after the question lead — the
    provenance graph matches sources by substring, so a loose phrase
    still finds the record.
    """
    quoted = _QUOTED_RE.search(clause)
    if quoted:
        return quoted.group(1) or quoted.group(2)
    token = _SOURCE_TOKEN_RE.search(clause)
    if token:
        return token.group(1)
    tail = _WHY_NOT_LEAD_RE.sub("", clause)
    tail = re.split(r"\bnot in the\b|\bin the\b|[?.!]", tail)[0]
    words = [w for w in re.findall(r"[\w\-]+", tail)
             if w.lower() not in _ARTICLES]
    return " ".join(words[:4])


# ---------------------------------------------------------------------------
# The planner and the brain.
# ---------------------------------------------------------------------------

def plan_requests(message: str,
                  workspace: PipelineWorkspace) -> List[ToolCall]:
    """Parse ``message`` into an ordered tool-call plan."""
    calls: List[ToolCall] = []
    hits = _match_anchors(message)

    for index, (_, intent, _match) in enumerate(hits):
        clause = _clause_bounds(hits, index, message)
        if intent == "load":
            source = _find_source(clause) or _find_source(message)
            if source:
                calls.append(ToolCall(
                    thought=f"The user wants to load data from {source!r}.",
                    tool_name="load_dataset",
                    arguments={"source": source},
                ))
            else:
                # No recognizable path or dataset id: ask instead of
                # guessing (the brain turns this into a clarification).
                calls.append(ToolCall(
                    thought="The user wants to load data but gave no "
                            "recognizable source.",
                    tool_name="list_datasets",
                    arguments={},
                ))
        elif intent == "filter":
            predicate = _parse_filter(clause)
            if predicate:
                calls.append(ToolCall(
                    thought="The user wants to keep only matching records.",
                    tool_name="filter_dataset",
                    arguments={"predicate": predicate},
                ))
        elif intent in ("extract", "schema"):
            spec = _parse_extract(clause)
            calls.append(ToolCall(
                thought=(
                    "I need an extraction schema "
                    f"{spec['schema_name']} for the requested fields."
                ),
                tool_name="create_schema",
                arguments={
                    "schema_name": spec["schema_name"],
                    "schema_description": spec["schema_description"],
                    "field_names": [f for f, _ in spec["fields"]],
                    "field_descriptions": [d for _, d in spec["fields"]],
                },
            ))
            if intent == "extract":
                calls.append(ToolCall(
                    thought=(
                        "Apply the extraction schema with a convert "
                        "operation."
                    ),
                    tool_name="convert_dataset",
                    arguments={
                        "schema_name": spec["schema_name"],
                        "cardinality": spec["cardinality"],
                    },
                ))
        elif intent == "policy":
            target = _parse_policy(clause)
            if target:
                calls.append(ToolCall(
                    thought=f"Set the optimization target to {target}.",
                    tool_name="set_optimization_target",
                    arguments={"target": target},
                ))
        elif intent == "execute":
            calls.append(ToolCall(
                thought="Run the pipeline that has been built.",
                tool_name="execute_pipeline",
                arguments={},
            ))
        elif intent == "rerun":
            calls.append(ToolCall(
                thought=(
                    "Re-run the pipeline incrementally on the updated "
                    "corpus, reusing the previous run's recorded calls."
                ),
                tool_name="rerun_pipeline",
                arguments={},
            ))
        elif intent == "explain_run":
            calls.append(ToolCall(
                thought="Explain the last run from its execution trace.",
                tool_name="explain_execution",
                arguments={},
            ))
        elif intent == "why_record":
            record_id = _parse_record_id(clause)
            calls.append(ToolCall(
                thought=(
                    "Explain how that output record was derived, from "
                    "the run's provenance graph."
                ),
                tool_name="explain_record",
                arguments={"record_id": record_id},
            ))
        elif intent == "why_not":
            source = _parse_source_ref(clause)
            calls.append(ToolCall(
                thought=(
                    f"Trace the fate of source {source!r} through the "
                    "run's provenance graph."
                ),
                tool_name="explain_record",
                arguments={"source": source},
            ))
        elif intent == "compare_runs":
            calls.append(ToolCall(
                thought="Diff the last two runs of this session.",
                tool_name="compare_runs",
                arguments={},
            ))
        elif intent == "stats":
            calls.append(ToolCall(
                thought="Report the execution statistics.",
                tool_name="get_execution_stats",
                arguments={},
            ))
        elif intent == "show":
            calls.append(ToolCall(
                thought="Show the output records.",
                tool_name="show_records",
                arguments={},
            ))
        elif intent == "code":
            calls.append(ToolCall(
                thought="Produce the equivalent Palimpzest program.",
                tool_name="generate_code",
                arguments={},
            ))
        elif intent == "workers":
            count_match = re.search(r"(\d+)\s+(?:parallel\s+)?workers?",
                                    clause, re.I)
            workers = int(count_match.group(1)) if count_match else 4
            calls.append(ToolCall(
                thought=f"Run pipelines with {workers} parallel workers.",
                tool_name="set_parallelism",
                arguments={"workers": workers},
            ))
        elif intent == "executor":
            name_match = re.search(
                r"\b(sequential|parallel|pipelined|sharded|async)\b",
                clause, re.I)
            shard_match = re.search(r"\b(\d+)\s+shards?\b", clause, re.I)
            if name_match:
                executor = name_match.group(1).lower()
            elif shard_match or re.search(r"\bshard", clause, re.I):
                executor = "sharded"
            else:
                executor = "pipelined"
            size_match = re.search(r"\bbatch(?:\s+size)?(?:\s+of)?\s+(\d+)\b",
                                   clause, re.I)
            batch_size = int(size_match.group(1)) if size_match else 1
            arguments = {"executor": executor, "batch_size": batch_size}
            if executor in SCALE_OUT_EXECUTORS and shard_match:
                arguments["shards"] = int(shard_match.group(1))
            calls.append(ToolCall(
                thought=f"Switch pipelines to the {executor} executor.",
                tool_name="set_execution_mode",
                arguments=arguments,
            ))
        elif intent == "explain":
            calls.append(ToolCall(
                thought="Show the optimizer's plan space and choice.",
                tool_name="explain_plans",
                arguments={},
            ))
        elif intent == "lint":
            calls.append(ToolCall(
                thought="Statically check the pipeline for mistakes.",
                tool_name="lint_pipeline",
                arguments={},
            ))
        elif intent == "reset":
            calls.append(ToolCall(
                thought="Discard the current pipeline.",
                tool_name="reset_pipeline",
                arguments={},
            ))
        elif intent == "list":
            calls.append(ToolCall(
                thought="List the registered datasets.",
                tool_name="list_datasets",
                arguments={},
            ))
        elif intent == "describe":
            calls.append(ToolCall(
                thought="Describe the pipeline so far.",
                tool_name="describe_pipeline",
                arguments={},
            ))

    # Deduplicate identical consecutive calls (anchor overlap artifacts).
    deduped: List[ToolCall] = []
    for call in calls:
        if deduped and (
            deduped[-1].tool_name == call.tool_name
            and deduped[-1].arguments == call.arguments
        ):
            continue
        deduped.append(call)
    return deduped


_HELP_TEXT = (
    "I can build and run AI data pipelines for you. Try, for example:\n"
    "- 'Load the papers from ./papers'\n"
    "- 'Keep only the papers about colorectal cancer'\n"
    "- 'Extract the dataset name, description and url for any public "
    "dataset used'\n"
    "- 'Maximize quality' (or 'minimize cost' / 'minimize runtime')\n"
    "- 'Run the pipeline', then 'show the results' or "
    "'how much did it cost?'"
)


class PalimpChatBrain(Brain):
    """Deterministic reasoning policy for the PalimpChat agent.

    Args:
        workspace: the pipeline state the planned tool calls mutate.
        tracer: observability tracer; intent routing becomes a
            ``chat.intent`` span recording which tools were planned.
    """

    def __init__(self, workspace: PipelineWorkspace, tracer=None):
        self.workspace = workspace
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def decide(self, context: BrainContext) -> Decision:
        pending = context.state.get(_STATE_KEY)
        if pending is None:
            with self.tracer.span(
                "chat.intent", SpanKind.CHAT,
            ) as intent_span:
                pending = plan_requests(context.user_message, self.workspace)
                if self.tracer.enabled:
                    intent_span.set_attribute(
                        "planned_calls", len(pending)
                    )
                    intent_span.set_attribute(
                        "tools", [call.tool_name for call in pending]
                    )
            if self.workspace.on_progress is not None:
                # Surface intent routing on the progress stream so the
                # serving layer can correlate "what was planned" with
                # the request that asked for it.
                self.workspace.on_progress({
                    "type": "intent",
                    "planned_calls": len(pending),
                    "tools": [call.tool_name for call in pending],
                })
            context.state[_STATE_KEY] = pending
            if not pending:
                return FinalAnswer(
                    thought="No actionable request recognized.",
                    answer=_HELP_TEXT,
                )
        if pending:
            return pending.pop(0)

        observations = [
            step.content
            for step in context.trace.steps
            if step.kind in ("observation", "error")
        ]
        answer = "\n".join(observations) if observations else "Done."
        return FinalAnswer(
            thought="All planned steps are complete; summarize.",
            answer=answer,
        )
