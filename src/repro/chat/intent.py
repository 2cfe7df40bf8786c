"""The deterministic chat brain: natural language -> tool-call plan.

This module replaces the hosted reasoning model that drives Archytas in the
original demo (see DESIGN.md, substitutions).  It parses a user utterance
into an ordered list of :class:`~repro.agent.react.ToolCall` decisions — the
same decomposition behaviour Fig. 4 shows ("the agent reasons and may decide
to decompose a user question into several tasks required before execution")
— and the ReAct loop executes them one observation at a time.
"""

from __future__ import annotations

import functools
import re
from typing import Any, Callable, List, NamedTuple, Optional, Tuple

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
    text = _CLAUSE_TAIL_RE.sub("", text)
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
# Plans: (clause, message) -> the tool calls one intent's clause asks for.
# ---------------------------------------------------------------------------

def _call(tool: str, thought: str, **arguments: Any) -> ToolCall:
    return ToolCall(thought=thought, tool_name=tool, arguments=arguments)


def _fixed(tool: str, thought: str) -> Callable[[str, str], List[ToolCall]]:
    """The plan of an intent whose tool takes no arguments."""
    return lambda clause, message: [_call(tool, thought)]


# A bare "that"/"which" leads a verb predicate ("papers that discuss X").
_PREDICATE_LEADS = re.compile(
    r"(?:(?:that|which)(?: (?:are|is))?|about|where|satisfying|related to)"
    r"\s+", re.I)

# Trailing connectors that belong to the *next* request, not the predicate
# or field list: "... about colorectal cancer, and I would like to" -> cut
# at the comma.  Clause splitting can also leave a bare "and"/"then" at
# the end ("... cancer, and then" or "... and url, then" before the next
# request).
_CLAUSE_TAIL_RE = re.compile(
    r"[,;.]?\s*(?:(?:\b(?:and|then|also|next|afterwards)\b[\s,]*)+"
    r"(?:i|we|please|you)\b.*|(?:\b(?:and|then)\b[\s,]*)+)$",
    re.I | re.S,
)


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
        predicate = _CLAUSE_TAIL_RE.sub("", predicate).strip().rstrip(".,;")
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


_SCHEMA_NAME_RE = re.compile(
    r"schema (?:called|named)\s+['\"]?(\w+)['\"]?", re.I)
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


def _plan_schema(clause: str, message: str,
                 convert: bool = False) -> List[ToolCall]:
    """Create the schema a clause names (and, with ``convert``, apply it).

    Derives the schema name, fields and cardinality from the clause.
    """
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
    calls = [_call(
        "create_schema",
        f"I need an extraction schema {schema_name} for the requested "
        "fields.",
        schema_name=schema_name,
        schema_description=f"A schema for extracting "
        f"{', '.join(f for f, _ in fields)} from the documents.",
        field_names=[f for f, _ in fields],
        field_descriptions=[d for _, d in fields],
    )]
    if convert:
        calls.append(_call(
            "convert_dataset",
            "Apply the extraction schema with a convert operation.",
            schema_name=schema_name,
            cardinality="one_to_many" if one_to_many else "one_to_one",
        ))
    return calls


_RECORD_ID_RE = re.compile(r"(?:record|#)\s*#?(\d+)", re.I)
_SOURCE_TOKEN_RE = re.compile(r"\b([A-Za-z0-9][\w\-]*[._][\w.\-]*\w)\b")
_WHY_NOT_LEAD_RE = re.compile(
    r"^\W*(?:why (?:isn't|wasn't|aren't|weren't|is not|was not|didn't"
    r"|did not)|what happened to|why (?:is|was))\s*", re.I)


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


def _plan_load(clause: str, message: str) -> List[ToolCall]:
    source = _find_source(clause) or _find_source(message)
    if source:
        return [_call("load_dataset",
                      f"The user wants to load data from {source!r}.",
                      source=source)]
    # No recognizable path or dataset id: ask instead of guessing (the
    # brain turns this into a clarification).
    return [_call("list_datasets", "The user wants to load data but gave "
                                   "no recognizable source.")]


def _plan_filter(clause: str, message: str) -> List[ToolCall]:
    predicate = _parse_filter(clause)
    return [_call("filter_dataset",
                  "The user wants to keep only matching records.",
                  predicate=predicate)] if predicate else []


_POLICY_WORDS = (("quality", "quality"),
                 ("cost", "cost|cheap|budget|money|dollar"),
                 ("runtime", "time|fast|quick|latency|speed"))


def _plan_policy(clause: str, message: str) -> List[ToolCall]:
    for target, words in _POLICY_WORDS:
        if re.search(words, clause, re.I):
            return [_call("set_optimization_target",
                          f"Set the optimization target to {target}.",
                          target=target)]
    return []


def _plan_why_record(clause: str, message: str) -> List[ToolCall]:
    # 'why is record 3 in the output' -> 3 (0 when unnumbered).
    match = _RECORD_ID_RE.search(clause)
    return [_call("explain_record",
                  "Explain how that output record was derived, from the "
                  "run's provenance graph.",
                  record_id=int(match.group(1)) if match else 0)]


def _plan_why_not(clause: str, message: str) -> List[ToolCall]:
    source = _parse_source_ref(clause)
    return [_call("explain_record",
                  f"Trace the fate of source {source!r} through the run's "
                  "provenance graph.",
                  source=source)]


def _plan_workers(clause: str, message: str) -> List[ToolCall]:
    count = re.search(r"(\d+)\s+(?:parallel\s+)?workers?", clause, re.I)
    workers = int(count.group(1)) if count else 4
    return [_call("set_parallelism",
                  f"Run pipelines with {workers} parallel workers.",
                  workers=workers)]


def _plan_executor(clause: str, message: str) -> List[ToolCall]:
    name_match = re.search(
        r"\b(sequential|parallel|pipelined|sharded|async)\b", clause, re.I)
    shard_match = re.search(r"\b(\d+)\s+shards?\b", clause, re.I)
    if name_match:
        executor = name_match.group(1).lower()
    elif shard_match or re.search(r"\bshard", clause, re.I):
        executor = "sharded"
    else:
        executor = "pipelined"
    size_match = re.search(r"\bbatch(?:\s+size)?(?:\s+of)?\s+(\d+)\b",
                           clause, re.I)
    arguments = {"executor": executor,
                 "batch_size": int(size_match.group(1)) if size_match else 1}
    if executor in SCALE_OUT_EXECUTORS and shard_match:
        arguments["shards"] = int(shard_match.group(1))
    return [_call("set_execution_mode",
                  f"Switch pipelines to the {executor} executor.",
                  **arguments)]


# ---------------------------------------------------------------------------
# The intent table.
# ---------------------------------------------------------------------------

class Intent(NamedTuple):
    """One row of the intent table; ``before`` names the intents this one
    modifies (see :func:`_hoisted`)."""

    name: str
    anchor: re.Pattern
    plan: Callable[[str, str], List[ToolCall]]
    before: Tuple[str, ...] = ()


def _anchor(pattern: str) -> re.Pattern:
    return re.compile(pattern, re.I | re.S)


_ACTIONS = ("execute", "rerun")

# A clause ends at , ; ? a sentence-ending dot, or an "and"/"then" that
# opens a new request ("use 4 workers and extract the dataset name"), not
# at one that joins two nouns ("check the filter and convert pipeline").
# The words between two parts of one anchor never cross it.
_BREAK = (r"[,;?]|\.(?!\S)|\b(?:and|then)\s+(?:then\s+)?(?:what|why|how"
          r"|which|where|re-?run|run|execute|launch|process|recompute|load"
          r"|upload|ingest|register|use|filter|keep|only|select|create"
          r"|extract|maximi[sz]e|minimi[sz]e|prioriti[sz]e|optimi[sz]e"
          r"|explain|profile|analy[sz]e|compare|diff|show|display|visuali[sz]e"
          r"|export|download|set|switch|check|validate|lint|reset|start|clear"
          r"|list|describe)\b")
_GAP = rf"(?:(?!{_BREAK}).)*?"

#: Every intent, one row each.  Row order breaks ties between hits that
#: start at the same offset.  A long anchor such as "explain the last run"
#: or "run it again" vetoes the shorter hits inside it ("run"), so those
#: phrases plan their own tool rather than an execution.
INTENTS: List[Intent] = [
    Intent("load", _anchor(
        r"\b(load|upload|ingest|register)\b"
        rf"|\buse\b{_GAP}\b(folder|directory|dataset|files)\b"), _plan_load),
    Intent("filter", _anchor(
        r"\b(filter|keep only|only keep|select only|interested in)\b"
        r"|\bpapers (?:that are )?about\b|\bdocuments about\b"),
        _plan_filter, before=("schema", "extract")),
    Intent("schema", _anchor(r"\bcreate (?:a |an )?schema\b"), _plan_schema),
    Intent("extract", _anchor(r"\bextract(?:ing)?\b"),
           functools.partial(_plan_schema, convert=True)),
    Intent("policy", _anchor(
        r"\b(maximi[sz](?:e|ing)|minimi[sz](?:e|ing)|prioriti[sz]e"
        r"|optimi[sz]e for|cheapest|optimization (?:goal|target))\b"
        r"|\bas (?:cheaply|fast) as possible\b"
        r"|\bminimal cost\b|\bbest quality\b"), _plan_policy, before=_ACTIONS),
    Intent("explain_run", _anchor(
        r"\bwhat took so long\b|\bwhy (?:was|is) (?:it|that|the run) "
        r"(?:so )?slow\b"
        rf"|\b(?:explain|profile|analy[sz]e|break down)\b{_GAP}"
        r"\b(?:last|previous|that|the) (?:run|execution)\b"
        r"|\bwhere did (?:all )?the time go\b|\bcritical path\b"
        r"|\bwhat was the bottleneck\b|\bbounding stage\b"),
        _fixed("explain_execution",
               "Explain the last run from its execution trace.")),
    Intent("why_not", _anchor(
        r"\bwhy (?:isn't|wasn't|aren't|weren't|is not|was not|didn't"
        r"|did not)\b"
        r"|\bwhat happened to\b"
        rf"|\bwhy\b{_GAP}\bnot in the (?:output|results?)\b"
        rf"|\bwhy (?:is|was)\b{_GAP}\b(?:dropped|filtered out|eliminated"
        r"|excluded|missing|removed)\b"), _plan_why_not),
    Intent("why_record", _anchor(
        rf"\bwhy (?:is|was|are|were) (?!not\b|n't)(?:(?!\bnot\b|{_BREAK}).)*"
        r"\bin the (?:output|results?)\b"
        r"|\b(?:explain|how was|where did|where does) record\s*#?\d+"
        r"|\bprovenance of\b|\bderivation (?:tree|of)\b"), _plan_why_record),
    Intent("compare_runs", _anchor(
        r"\bwhat(?:'s| is| has)? changed? since (?:the )?(?:last|previous)"
        r" run\b"
        r"|\b(?:compare|diff)\b(?:\s+\w+){0,3}\s+runs\b"
        r"|\b(?:compare|diff)\b(?:\s+\w+){0,2}\s+(?:last|previous) run\b"
        r"|\bhow (?:do|did) the (?:two )?runs differ\b"),
        _fixed("compare_runs", "Diff the last two runs of this session.")),
    Intent("rerun", _anchor(
        rf"\bre-?run\b(?:{_GAP}\bupdated\b)?"
        r"|\brun (?:it|that|the pipeline) again\b"
        rf"|\b(?:run|execute|recompute)\b{_GAP}\bupdated "
        r"(?:corpus|data|dataset|documents|files)\b"
        rf"|\bincremental(?:ly)?\b{_GAP}\b(?:run|execution|re-?run)\b"),
        _fixed("rerun_pipeline",
               "Re-run the pipeline incrementally on the updated corpus, "
               "reusing the previous run's recorded calls.")),
    Intent("execute", _anchor(r"\b(run|execute|launch|process the)\b"),
           _fixed("execute_pipeline",
                  "Run the pipeline that has been built.")),
    Intent("stats", _anchor(
        r"\bhow (?:much|long)\b|\bstatistics\b|\bstats\b|\bcosted\b"
        r"|\bwhat did (?:it|this) cost\b"),
        _fixed("get_execution_stats", "Report the execution statistics.")),
    Intent("show", _anchor(
        r"\b(show|display|visuali[sz]e)\b"
        r"|\bwhat (?:did you|was) (?:find|found|extracted)\b"),
        _fixed("show_records", "Show the output records.")),
    Intent("code", _anchor(r"\b(code|notebook|export|download)\b"),
           _fixed("generate_code",
                  "Produce the equivalent Palimpzest program.")),
    Intent("workers", _anchor(
        r"\b(?:use|with|set)\s+(\d+)\s+(?:parallel\s+)?workers?\b"
        r"|\bin parallel\b"), _plan_workers, before=_ACTIONS),
    Intent("executor", _anchor(
        r"\b(?:(?:switch to|use) (?:the )?)?"
        r"(?:sequential|parallel|pipelined|sharded|async(?:io)?)"
        r"\s+(?:executor|engine|execution|mode)\b"
        r"|\bexecution mode\b|\bexecutor\b|\bbatch size\b"
        r"|\b\d+\s+shards?\b"
        r"|\bshard(?:ed)?\s+(?:the\s+)?(?:pipeline|execution)\b"),
        _plan_executor, before=_ACTIONS),
    Intent("explain", _anchor(
        r"\b(explain|compare|what) (?:the )?(physical )?plans?\b"
        r"|\bplan space\b|\bwhich plan\b"),
        _fixed("explain_plans",
               "Show the optimizer's plan space and choice.")),
    Intent("lint", _anchor(
        rf"\blint\b|\b(?:validate|sanity[- ]check|check)\b{_GAP}\bpipeline\b"
        r"|\bany (?:problems|mistakes|issues) (?:with|in)\b"
        rf"{_GAP}\bpipeline\b"),
        _fixed("lint_pipeline",
               "Statically check the pipeline for mistakes.")),
    Intent("reset", _anchor(r"\b(reset|start over|clear the pipeline)\b"),
           _fixed("reset_pipeline", "Discard the current pipeline.")),
    Intent("list", _anchor(r"\b(?:list|which|what) datasets\b"),
           _fixed("list_datasets", "List the registered datasets.")),
    Intent("describe", _anchor(r"\b(describe|explain) the pipeline\b"),
           _fixed("describe_pipeline", "Describe the pipeline so far.")),
]

_Hit = Tuple[int, Intent, re.Match]


def _match_anchors(message: str) -> List[_Hit]:
    hits = [(match.start(), row, match)
            for row in INTENTS for match in row.anchor.finditer(message)]
    # Containment suppression: a hit strictly inside another intent's
    # longer match is a fragment of that phrase, not a request of its own
    # ("run" inside "explain the last run" must not trigger execute).
    hits = [hit for hit in hits if not any(
        other[1] is not hit[1] and other[2].start() <= hit[2].start()
        and hit[2].end() <= other[2].end()
        and len(other[2].group()) > len(hit[2].group()) for other in hits)]
    hits.sort(key=lambda h: h[0])
    # Deduplicate overlapping same-intent hits.
    deduped: List[_Hit] = []
    for hit in hits:
        if not deduped or deduped[-1][1] is not hit[1]:
            deduped.append(hit)
    return deduped


def _hoisted(message: str, hits: List[_Hit]) -> List[int]:
    """The indices of ``hits`` in planning order: a modifier moves just
    ahead of a target said right before it (past modifiers of its kind),
    unless it is its own clause and a target also follows it ("run it,
    then minimize cost and run it again").  The rest keep their order."""
    def neighbour(index: int, step: int) -> Optional[int]:
        before, j = hits[index][1].before, index + step
        while 0 <= j < len(hits) and hits[j][1].before == before:
            j += step
        return j if 0 <= j < len(hits) and hits[j][1].name in before else None

    def key(index: int) -> Tuple[int, bool, int]:
        back = neighbour(index, -1) if hits[index][1].before else None
        if back is not None and neighbour(index, 1) is not None and re.search(
                _BREAK, message[hits[back][0]:hits[index][2].end()], re.I):
            back = None
        return (index, True, index) if back is None else (back, False, index)

    return sorted(range(len(hits)), key=key)


# ---------------------------------------------------------------------------
# The planner and the brain.
# ---------------------------------------------------------------------------

def plan_requests(message: str,
                  workspace: PipelineWorkspace) -> List[ToolCall]:
    """Parse ``message`` into an ordered tool-call plan.

    Match the table's anchors, hoist modifiers ahead of what they modify,
    plan each hit's clause (the text up to the next hit) with its row, and
    drop a call that repeats the one before it (anchor overlap artifacts).
    """
    hits = _match_anchors(message)
    stops = [start for start, _, _ in hits[1:]] + [len(message)]
    calls: List[ToolCall] = []
    for index in _hoisted(message, hits):
        start, row, _ = hits[index]
        for call in row.plan(message[start:stops[index]], message):
            if not calls or (calls[-1].tool_name, calls[-1].arguments) != (
                    call.tool_name, call.arguments):
                calls.append(call)
    return calls


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
