"""Record-level provenance: who produced each record, and why.

During execution every physical operator reports its record-level
derivations to a :class:`ProvenanceRecorder` hanging off the execution
context:

- **emit** events: parent record(s) -> child record(s), with the LLM
  calls (model, tokens, cost, cache hits) that paid for the hop;
- **drop** events: a record eliminated by an operator, with a reason
  from the :class:`DropReason` enum and the evidence (judge verdict,
  limit position, similarity score, ...).

Like traces (``repro.obs.trace``), the raw event log depends on the
schedule — the pipelined and sharded loops visit lanes in their own
order, and ``DataRecord._record_id`` values depend on allocation order.
A **canonical finalization pass** fixes both: roots are ordered by
(origin, arrival), then each operator's events are sorted by their
(already-canonical) parent ids, and canonical ids are assigned in that
order.  The resulting :class:`ProvenanceGraph` is byte-identical across
executors, worker counts, and batch sizes (``ProvenanceGraph.signature``
pins this in ``tests/test_provenance_determinism.py``).

On top of the graph sit the two explanation queries PalimpChat exposes:

- :meth:`ProvenanceGraph.why` — the full derivation tree of an output
  record (every hop, with per-hop LLM cost);
- :meth:`ProvenanceGraph.why_not` — the fate of a source record that is
  *not* in the output: the exact op, reason, and verdict that
  eliminated it (or the fold/derivation trail if it survives in
  aggregate form).

Everything defaults to the shared :data:`NULL_PROVENANCE` no-op so the
hot path pays a single attribute check when provenance is off.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DropReason",
    "DROP_REASONS",
    "ProvenanceError",
    "ProvenanceRecorder",
    "ProvenanceGraph",
    "NULL_PROVENANCE",
    "render_why",
    "render_why_not",
]

_PREVIEW_CHARS = 120


class ProvenanceError(RuntimeError):
    """An operator reported an event the recorder cannot reconcile."""


class DropReason:
    """Why a record left the pipeline.  Values are stable strings."""

    FILTER_REJECTED = "filter_rejected"
    LIMIT_CUTOFF = "limit_cutoff"
    JOIN_NO_MATCH = "join_no_match"
    AGGREGATE_FOLD = "aggregate_fold"
    RETRIEVE_CUTOFF = "retrieve_cutoff"
    DISTINCT_DUPLICATE = "distinct_duplicate"
    CONVERT_EMPTY = "convert_empty"


#: Every legal drop reason; :meth:`ProvenanceRecorder.drop` refuses any
#: other.
DROP_REASONS = frozenset(
    value
    for name, value in vars(DropReason).items()
    if not name.startswith("_")
)


def _llm_summary(usages: Optional[Sequence[Any]]) -> Optional[Dict[str, Any]]:
    """Collapse LLM usage records into batch-invariant attributes.

    Tokens, cost, and cache hits are identical whether calls ran
    per-record or batched; **latency is not** (it amortizes across a
    batch), so it is deliberately excluded — including it would break
    graph byte-identity across batch sizes.
    """
    if not usages:
        return None
    cache_hits = sum(1 for u in usages if u.operation.endswith(":cached"))
    return {
        "models": ",".join(sorted({u.model for u in usages})),
        "calls": len(usages),
        "input_tokens": sum(u.input_tokens for u in usages),
        "output_tokens": sum(u.output_tokens for u in usages),
        "cost_usd": round(sum(u.cost_usd for u in usages), 9),
        "cache_hits": cache_hits,
        "operations": ",".join(sorted({u.operation for u in usages})),
    }


class _NullProvenance:
    """Shared no-op recorder: provenance disabled at zero cost."""

    __slots__ = ()
    enabled = False

    def begin_plan(self, plan) -> None:
        pass

    def source(self, record, origin: str = "scan") -> None:
        pass

    def emit(self, op, parents, children, llm=None, **attrs) -> None:
        pass

    def drop(self, op, record, reason, llm=None, **attrs) -> None:
        pass

    @contextmanager
    def suspended(self):
        yield

    def __repr__(self) -> str:  # pragma: no cover
        return "NULL_PROVENANCE"


NULL_PROVENANCE = _NullProvenance()


class ProvenanceRecorder:
    """Collects raw derivation events during one plan execution.

    A recorder belongs to one run and every schedule reports to it from
    the calling thread, so it takes no lock.  The recorder holds strong
    references to the :class:`DataRecord` objects it sees so runtime ids
    stay unique for the lifetime of the run (``id()`` reuse after garbage
    collection would corrupt the graph).

    ``suspended()`` turns recording off for the block — used
    around nested executions (join/union right-side materialization runs
    a nested optimizer + executor in the *same* context) whose internal
    events must not pollute the outer graph.
    """

    def __init__(self):
        self._op_index: Dict[int, int] = {}
        self._op_labels: List[str] = []
        self._records: Dict[int, Any] = {}
        self._roots: List[Tuple[str, int, int]] = []  # (origin, arrival, rid)
        self._origin_counts: Dict[str, int] = {}
        self._events: List[Dict[str, Any]] = []
        #: Depth of open :meth:`suspended` blocks.
        self._suspend = 0

    # -- recording state ------------------------------------------------

    @property
    def enabled(self) -> bool:
        """False while inside :meth:`suspended`."""
        return self._suspend == 0

    @contextmanager
    def suspended(self):
        self._suspend += 1
        try:
            yield
        finally:
            self._suspend -= 1

    # -- event intake ---------------------------------------------------

    def begin_plan(self, plan) -> None:
        """Register the plan's operators; events name ops by plan index."""
        if not self.enabled:
            return
        for op in plan:
            if id(op) in self._op_index:
                continue
            self._op_index[id(op)] = len(self._op_labels)
            self._op_labels.append(op.op_label)

    def source(self, record, origin: str = "scan") -> None:
        """Register a graph root (scanned or right-side materialized)."""
        if not self.enabled:
            return
        rid = record.record_id
        if rid in self._records:
            return
        self._records[rid] = record
        arrival = self._origin_counts.get(origin, 0)
        self._origin_counts[origin] = arrival + 1
        self._roots.append((origin, arrival, rid))

    def emit(self, op, parents, children, llm=None, **attrs) -> None:
        """Record a derivation: ``parents`` produced ``children`` at ``op``.

        A *pass-through* (children is parents — e.g. a kept filter
        record) attaches evidence to the record's journey without
        creating a new node.  ``llm`` is the list of ``LLMUsage``
        records the hop consumed.
        """
        if not self.enabled:
            return
        self._record_event(op, "emit", None, parents, children, llm, attrs)

    def drop(self, op, record, reason, llm=None, **attrs) -> None:
        """Record an elimination: ``record`` left the pipeline at ``op``."""
        if not self.enabled:
            return
        if reason not in DROP_REASONS:
            raise ProvenanceError(f"unknown drop reason {reason!r}")
        self._record_event(op, "drop", reason, [record], [], llm, attrs)

    def _record_event(self, op, kind, reason, parents, children, llm,
                      attrs) -> None:
        op_idx = self._op_index.get(id(op))
        if op_idx is None:
            raise ProvenanceError(
                f"operator {op.op_label!r} was never registered via "
                "begin_plan(); provenance events would be orphaned"
            )
        for record in parents:
            self._records.setdefault(record.record_id, record)
        for record in children:
            self._records.setdefault(record.record_id, record)
        self._events.append({
            "op": op_idx,
            "kind": kind,
            "reason": reason,
            "parents": [r.record_id for r in parents],
            "children": [r.record_id for r in children],
            "llm": _llm_summary(llm),
            "attrs": dict(attrs),
        })

    # -- raw event access -----------------------------------------------

    def event_count(self) -> int:
        """Raw events recorded so far — a mark for :meth:`events_since`."""
        return len(self._events)

    def events_since(self, mark: int) -> List[Dict[str, Any]]:
        """The raw events recorded after ``mark`` (read-only views; ids
        are runtime record ids).  Journey capture on the inline schedule
        reads the event one operator visit reported from here."""
        return self._events[mark:]

    # -- finalization ---------------------------------------------------

    def finalize(self, outputs: Iterable[Any]) -> "ProvenanceGraph":
        """Canonicalize the event log into a :class:`ProvenanceGraph`.

        Deterministic whichever order the schedule reported in: roots are
        ordered by (origin, arrival index), then each operator's events
        (ascending plan index) are sorted by their canonical parent
        ids + kind + reason + attributes, and canonical ids are handed
        out in exactly that order.
        """
        rid_to_cid: Dict[int, int] = {}
        nodes: List[Dict[str, Any]] = []

        def add_node(rid: int, origin: str) -> int:
            record = self._records[rid]
            cid = len(nodes) + 1
            rid_to_cid[rid] = cid
            payload = record.to_json()
            nodes.append({
                "id": cid,
                "source_id": record.source_id,
                "schema": record.schema.schema_name(),
                "origin": origin,
                "preview": payload[:_PREVIEW_CHARS],
                "fp": hashlib.sha256(
                    payload.encode("utf-8")).hexdigest()[:16],
            })
            return cid

        for origin, arrival, rid in sorted(
                self._roots, key=lambda r: (r[0], r[1])):
            add_node(rid, origin)

        by_op: Dict[int, List[Dict[str, Any]]] = {}
        for event in self._events:
            by_op.setdefault(event["op"], []).append(event)

        canonical_events: List[Dict[str, Any]] = []
        for op_idx in sorted(by_op):
            prepared = []
            for event in by_op[op_idx]:
                attrs = dict(event["attrs"])
                # duplicate_of names another record by *runtime* id;
                # rewrite to the canonical id before sorting on it.
                dup = attrs.get("duplicate_of")
                if dup is not None:
                    if dup not in rid_to_cid:
                        raise ProvenanceError(
                            "duplicate_of references a record with no "
                            "canonical id yet")
                    attrs["duplicate_of"] = rid_to_cid[dup]
                try:
                    parent_cids = [rid_to_cid[rid]
                                   for rid in event["parents"]]
                except KeyError:
                    raise ProvenanceError(
                        f"event at op {self._op_labels[op_idx]!r} has a "
                        "parent with no provenance; was the scan "
                        "registered via source()?") from None
                key = (
                    tuple(sorted(parent_cids)),
                    0 if event["kind"] == "emit" else 1,
                    event["reason"] or "",
                    json.dumps(attrs, default=str, sort_keys=True),
                )
                prepared.append((key, event, attrs, parent_cids))
            prepared.sort(key=lambda item: item[0])
            for _, event, attrs, parent_cids in prepared:
                child_cids = []
                for rid in event["children"]:
                    cid = rid_to_cid.get(rid)
                    if cid is None:
                        cid = add_node(rid, "derived")
                    child_cids.append(cid)
                canonical_events.append({
                    "op": event["op"],
                    "op_label": self._op_labels[event["op"]],
                    "kind": event["kind"],
                    "reason": event["reason"],
                    "parents": parent_cids,
                    "children": child_cids,
                    "llm": event["llm"],
                    "attrs": attrs,
                })

        output_ids = []
        for record in outputs:
            cid = rid_to_cid.get(record.record_id)
            if cid is None:
                # A plan with no event-reporting ops (pure scan)
                # still has its outputs as roots; anything else
                # missing is a wiring bug.
                raise ProvenanceError(
                    "output record has no provenance node; an operator "
                    "emitted it without reporting the derivation")
            output_ids.append(cid)

        graph = ProvenanceGraph(
            ops=list(self._op_labels),
            nodes=nodes,
            events=canonical_events,
            output_ids=output_ids,
        )
        graph._rid_to_cid = dict(rid_to_cid)
        return graph


class ProvenanceGraph:
    """The canonical record-derivation DAG for one run.

    Serializable (``to_dict``/``from_dict``/``to_json``) and hashable
    (``signature``).  ``why``/``why_not`` answer the two PalimpChat
    explanation questions purely from the canonical form, so their
    results are byte-identical wherever the graph is.
    """

    def __init__(self, ops: List[str], nodes: List[Dict[str, Any]],
                 events: List[Dict[str, Any]], output_ids: List[int]):
        self.ops = ops
        self.nodes = nodes
        self.events = events
        self.output_ids = output_ids
        self._rid_to_cid: Dict[int, int] = {}

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "nodes": self.nodes,
            "events": self.events,
            "output_ids": self.output_ids,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProvenanceGraph":
        return cls(
            ops=list(payload["ops"]),
            nodes=list(payload["nodes"]),
            events=list(payload["events"]),
            output_ids=list(payload["output_ids"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str, sort_keys=True)

    def signature(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"ProvenanceGraph(nodes={len(self.nodes)}, "
            f"events={len(self.events)}, outputs={len(self.output_ids)})"
        )

    # -- lookups --------------------------------------------------------

    def canonical_id(self, record) -> Optional[int]:
        """Canonical id of an in-memory record from the producing run."""
        return self._rid_to_cid.get(record.record_id)

    def node(self, node_id: int) -> Dict[str, Any]:
        if not 1 <= node_id <= len(self.nodes):
            raise ProvenanceError(
                f"no record {node_id} in this provenance graph "
                f"(ids run 1..{len(self.nodes)})")
        return self.nodes[node_id - 1]

    def roots(self) -> List[Dict[str, Any]]:
        return [n for n in self.nodes if n["origin"] != "derived"]

    def find_sources(self, source_id: str) -> List[Dict[str, Any]]:
        """Root nodes matching ``source_id``.

        Tries an exact source-id match, then source-id containment, then
        content-preview containment (datasets often share one source id,
        so "why not paper_003?" matches on the scanned filename/content).
        """
        exact = [n for n in self.roots() if n["source_id"] == source_id]
        if exact:
            return exact
        contained = [
            n for n in self.roots()
            if n["source_id"] and source_id in n["source_id"]
        ]
        if contained:
            return contained
        return [n for n in self.roots() if source_id in n["preview"]]

    def _producing_event(self, node_id: int) -> Optional[Dict[str, Any]]:
        for event in self.events:
            if node_id in event["children"] and node_id not in event["parents"]:
                return event
        return None

    def _journey(self, node_id: int) -> List[Dict[str, Any]]:
        """Pass-through events the record survived, in plan order."""
        return [
            e for e in self.events
            if node_id in e["parents"] and node_id in e["children"]
        ]

    # -- why ------------------------------------------------------------

    def why(self, record_id: int, _depth: int = 0) -> Dict[str, Any]:
        """Full derivation tree of ``record_id`` (a canonical node id).

        Each level reports the node, the event that produced it (with
        per-hop LLM cost), the pass-through hops it survived, and the
        recursively-explained parents.  Roots report their origin
        instead of a producing event.
        """
        node = self.node(record_id)
        produced = self._producing_event(record_id)
        parents = []
        if produced is not None:
            seen = set()
            for pid in produced["parents"]:
                if pid in seen:
                    continue
                seen.add(pid)
                parents.append(self.why(pid, _depth + 1))
        return {
            "id": node["id"],
            "source_id": node["source_id"],
            "schema": node["schema"],
            "origin": node["origin"],
            "preview": node["preview"],
            "in_output": node["id"] in self.output_ids,
            "produced_by": _event_view(produced),
            "hops": [_event_view(e) for e in self._journey(record_id)],
            "parents": parents,
        }

    # -- why not --------------------------------------------------------

    def why_not(self, source_id: str) -> Dict[str, Any]:
        """Explain the fate of every source record matching ``source_id``.

        For each matching root: ``in_output`` if it survived verbatim,
        ``dropped`` with the eliminating event (op, reason, verdict),
        ``folded`` when an aggregate consumed it (both the fold event
        and the aggregate output's own fate are reported), or
        ``derived`` with the fates of its children.
        """
        matches = self.find_sources(source_id)
        return {
            "source_id": source_id,
            "matches": len(matches),
            "fates": [self._fate(n["id"]) for n in matches],
        }

    def _fate(self, node_id: int, _seen: Optional[set] = None) -> Dict[str, Any]:
        seen = _seen if _seen is not None else set()
        node = self.node(node_id)
        base = {
            "id": node["id"],
            "source_id": node["source_id"],
            "schema": node["schema"],
            "journey": [_event_view(e) for e in self._journey(node_id)],
        }
        if node_id in seen:
            base["status"] = "cycle"
            return base
        seen.add(node_id)
        if node_id in self.output_ids:
            base["status"] = "in_output"
            return base
        drops = [
            e for e in self.events
            if e["kind"] == "drop" and node_id in e["parents"]
        ]
        derives = [
            e for e in self.events
            if e["kind"] == "emit" and node_id in e["parents"]
            and node_id not in e["children"]
        ]
        if drops and derives:
            # An aggregate folded it in *and* produced an output record.
            base["status"] = "folded"
            base["dropped_by"] = _event_view(drops[0])
            base["children"] = [
                self._fate(cid, seen)
                for e in derives for cid in e["children"]
            ]
            return base
        if drops:
            base["status"] = "dropped"
            base["dropped_by"] = _event_view(drops[0])
            return base
        if derives:
            base["status"] = "derived"
            base["children"] = [
                self._fate(cid, seen)
                for e in derives for cid in e["children"]
            ]
            return base
        base["status"] = "dangling"
        return base


def _event_view(event: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The stable, user-facing projection of a canonical event."""
    if event is None:
        return None
    view = {
        "op": event["op"],
        "op_label": event["op_label"],
        "kind": event["kind"],
    }
    if event["reason"]:
        view["reason"] = event["reason"]
    if event["attrs"]:
        view["attrs"] = dict(sorted(event["attrs"].items()))
    if event["llm"]:
        view["llm"] = event["llm"]
    return view


# -- rendering ----------------------------------------------------------


def _format_event(view: Optional[Dict[str, Any]]) -> str:
    if view is None:
        return "source"
    parts = [view["op_label"]]
    if view.get("reason"):
        parts.append(f"reason={view['reason']}")
    for key, value in (view.get("attrs") or {}).items():
        parts.append(f"{key}={value}")
    llm = view.get("llm")
    if llm:
        parts.append(
            f"llm[{llm['calls']} call(s), {llm['models']}, "
            f"${llm['cost_usd']:.6f}, {llm['cache_hits']} cached]"
        )
    return " ".join(parts)


def render_why(tree: Dict[str, Any], indent: int = 0) -> str:
    """Human-readable derivation tree from :meth:`ProvenanceGraph.why`."""
    pad = "  " * indent
    lines = [
        f"{pad}record #{tree['id']} [{tree['schema']}] "
        f"source={tree['source_id']!r}"
        + (" (in output)" if tree["in_output"] and indent == 0 else "")
    ]
    lines.append(f"{pad}  produced by: {_format_event(tree['produced_by'])}")
    for hop in tree["hops"]:
        lines.append(f"{pad}  survived: {_format_event(hop)}")
    for parent in tree["parents"]:
        lines.append(f"{pad}  from:")
        lines.append(render_why(parent, indent + 2))
    return "\n".join(lines)


def _render_fate(fate: Dict[str, Any], indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines = [
        f"{pad}record #{fate['id']} [{fate['schema']}] "
        f"source={fate['source_id']!r}: {fate['status']}"
    ]
    for hop in fate["journey"]:
        lines.append(f"{pad}  survived: {_format_event(hop)}")
    if fate.get("dropped_by"):
        lines.append(
            f"{pad}  eliminated by: {_format_event(fate['dropped_by'])}")
    for child in fate.get("children", []):
        lines.append(f"{pad}  became:")
        lines.extend(_render_fate(child, indent + 2))
    return lines


def render_why_not(result: Dict[str, Any]) -> str:
    """Human-readable fates from :meth:`ProvenanceGraph.why_not`."""
    if not result["matches"]:
        return (
            f"no source record matching {result['source_id']!r} "
            "was scanned in this run"
        )
    lines = [
        f"{result['matches']} source record(s) match "
        f"{result['source_id']!r}:"
    ]
    for fate in result["fates"]:
        lines.extend(_render_fate(fate, 1))
    return "\n".join(lines)
