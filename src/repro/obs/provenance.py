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
from itertools import groupby
from operator import itemgetter
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.llm.memo import TextMemo, register_memo
from repro.obs.columns import (
    mapping_at,
    mapping_positions,
    pack_mappings,
)

__all__ = [
    "DropReason",
    "DROP_REASONS",
    "ProvenanceError",
    "ProvenanceRecorder",
    "ProvenanceGraph",
    "NULL_PROVENANCE",
    "record_fingerprint",
    "render_why",
    "render_why_not",
]

_PREVIEW_CHARS = 120
#: Node fields with a column of their own; a node's id is its position
#: plus one.
_NODE_FIELDS = ("source_id", "schema", "origin", "preview", "fp")
#: The fields of an event's ``llm`` summary, flattened into ``llm_*``
#: event columns (None where the hop made no call).
_LLM_FIELDS = ("models", "calls", "input_tokens", "output_tokens",
               "cost_usd", "cache_hits", "operations")
#: ``format`` of a columnar graph payload (``provenance.json``).
PROVENANCE_COLUMNS_FORMAT = "repro.provenance/columns-v1"

_record_fp_memo = register_memo(TextMemo("record_fp"))


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


def record_fingerprint(payload: str) -> str:
    """``sha256(record.to_json())[:16]``: a provenance node's ``fp`` and
    a source manifest entry's ``record_fp``.

    Memoized on the JSON text through :mod:`repro.llm.memo`, so a record
    the manifest pass fingerprinted costs finalization one dict probe,
    and a warm manifest build hashes only documents whose text changed.
    """
    return _record_fp_memo.get_or_compute(
        payload,
        lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
    )


def _llm_summary(usages: Optional[Sequence[Any]]) -> Optional[tuple]:
    """Collapse LLM usage records into batch-invariant attributes, in
    :data:`_LLM_FIELDS` order.

    Tokens, cost, and cache hits are identical whether calls ran
    per-record or batched; **latency is not** (it amortizes across a
    batch), so it is deliberately excluded — including it would break
    graph byte-identity across batch sizes.
    """
    if not usages:
        return None
    models, operations = set(), set()
    input_tokens = output_tokens = cost_usd = cache_hits = 0
    for usage in usages:
        models.add(usage.model)
        operations.add(usage.operation)
        input_tokens += usage.input_tokens
        output_tokens += usage.output_tokens
        cost_usd += usage.cost_usd
        cache_hits += usage.operation.endswith(":cached")
    return (
        ",".join(sorted(models)),
        len(usages),
        input_tokens,
        output_tokens,
        round(cost_usd, 9),
        cache_hits,
        ",".join(sorted(operations)),
    )


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
        #: Raw events as ``(op, reason, parent rids, child rids, llm,
        #: attrs)`` tuples: ``reason`` is None for an emit, ``llm`` the
        #: :func:`_llm_summary` tuple (or None), ``attrs`` the keyword
        #: dict the operator passed.
        self._events: List[tuple] = []
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
        self._record_event(op, None, parents, children, llm, attrs)

    def drop(self, op, record, reason, llm=None, **attrs) -> None:
        """Record an elimination: ``record`` left the pipeline at ``op``."""
        if not self.enabled:
            return
        if reason not in DROP_REASONS:
            raise ProvenanceError(f"unknown drop reason {reason!r}")
        self._record_event(op, reason, [record], (), llm, attrs)

    def _record_event(self, op, reason, parents, children, llm,
                      attrs) -> None:
        op_idx = self._op_index.get(id(op))
        if op_idx is None:
            raise ProvenanceError(
                f"operator {op.op_label!r} was never registered via "
                "begin_plan(); provenance events would be orphaned"
            )
        records = self._records
        for record in parents:
            records.setdefault(record.record_id, record)
        for record in children:
            records.setdefault(record.record_id, record)
        self._events.append((
            op_idx,
            reason,
            tuple([r.record_id for r in parents]),
            tuple([r.record_id for r in children]),
            _llm_summary(llm),
            attrs,
        ))

    # -- raw event access -----------------------------------------------

    def event_count(self) -> int:
        """Raw events recorded so far — a mark for :meth:`events_since`."""
        return len(self._events)

    def events_since(self, mark: int) -> List[tuple]:
        """The raw event tuples recorded after ``mark`` (ids are runtime
        record ids; see ``_events``).  Journey capture on the inline
        schedule reads the event one operator visit reported from
        here."""
        return self._events[mark:]

    # -- finalization ---------------------------------------------------

    def finalize(self, outputs: Iterable[Any]) -> "ProvenanceGraph":
        """Canonicalize the event log into a :class:`ProvenanceGraph`.

        Deterministic whichever order the schedule reported in: roots are
        ordered by (origin, arrival index), then each operator's events
        (ascending plan index) are sorted by their canonical parent
        ids + kind + reason + attributes, and canonical ids are handed
        out in exactly that order.  The graph is built as columns.
        """
        rid_to_cid: Dict[int, int] = {}
        records = self._records
        nodes: Dict[str, List[Any]] = {field: [] for field in _NODE_FIELDS}
        source_ids, schemas, origins, previews, fps = (
            nodes[field] for field in _NODE_FIELDS)

        def add_node(rid: int, origin: str) -> int:
            record = records[rid]
            payload = record.to_json()
            source_ids.append(record.source_id)
            schemas.append(record.schema.schema_name())
            origins.append(origin)
            previews.append(payload[:_PREVIEW_CHARS])
            fps.append(record_fingerprint(payload))
            cid = rid_to_cid[rid] = len(fps)
            return cid

        for origin, arrival, rid in sorted(
                self._roots, key=lambda r: (r[0], r[1])):
            add_node(rid, origin)

        by_op: Dict[int, List[tuple]] = {}
        for event in self._events:
            by_op.setdefault(event[0], []).append(event)

        events = _EventColumns()
        for op_idx in sorted(by_op):
            prepared = []
            for _, reason, parents, children, llm, attrs in by_op[op_idx]:
                # duplicate_of names another record by *runtime* id;
                # rewrite to the canonical id before sorting on it.
                dup = attrs.get("duplicate_of")
                if dup is not None:
                    if dup not in rid_to_cid:
                        raise ProvenanceError(
                            "duplicate_of references a record with no "
                            "canonical id yet")
                    attrs = dict(attrs, duplicate_of=rid_to_cid[dup])
                try:
                    parent_cids = [rid_to_cid[rid] for rid in parents]
                except KeyError:
                    raise ProvenanceError(
                        f"event at op {self._op_labels[op_idx]!r} has a "
                        "parent with no provenance; was the scan "
                        "registered via source()?") from None
                key = (
                    tuple(sorted(parent_cids)),
                    0 if reason is None else 1,
                    reason or "",
                )
                prepared.append(
                    (key, reason, parent_cids, children, llm, attrs))
            for _, reason, parent_cids, children, llm, attrs in (
                    _canonical_events(prepared)):
                child_cids = []
                for rid in children:
                    cid = rid_to_cid.get(rid)
                    if cid is None:
                        cid = add_node(rid, "derived")
                    child_cids.append(cid)
                events.append(op_idx, reason, parent_cids, child_cids, llm,
                              attrs)

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
            events=events.columns(),
            output_ids=output_ids,
        )
        graph._rid_to_cid = rid_to_cid
        return graph


def _canonical_events(prepared: List[tuple]) -> List[tuple]:
    """``prepared`` sorted by (key, attributes as sorted-key JSON), where
    each item is ``(key, ..., attrs)``.  The JSON is encoded only for
    items whose keys tie."""
    ordered: List[tuple] = []
    for _, tied in groupby(sorted(prepared, key=itemgetter(0)),
                           key=itemgetter(0)):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda item: json.dumps(
                item[-1], default=str, sort_keys=True))
        ordered.extend(tied)
    return ordered


class _EventColumns:
    """Builds a graph's event columns one canonical event at a time."""

    def __init__(self):
        self.ops: List[int] = []
        self.reasons: List[Optional[str]] = []
        self.parents: List[int] = []
        self.parent_ends: List[int] = []
        self.children: List[int] = []
        self.child_ends: List[int] = []
        self.llms: List[Optional[tuple]] = []
        self.attrs: List[Dict[str, Any]] = []

    def append(self, op: int, reason: Optional[str], parents, children,
               llm: Optional[tuple], attrs: Dict[str, Any]) -> None:
        self.ops.append(op)
        self.reasons.append(reason)
        self.parents.extend(parents)
        self.parent_ends.append(len(self.parents))
        self.children.extend(children)
        self.child_ends.append(len(self.children))
        self.llms.append(llm)
        self.attrs.append(attrs)

    def columns(self) -> Dict[str, Any]:
        columns: Dict[str, Any] = {
            "op": self.ops,
            "reason": self.reasons,
            "parents": self.parents,
            "parent_ends": self.parent_ends,
            "children": self.children,
            "child_ends": self.child_ends,
        }
        for position, field in enumerate(_LLM_FIELDS):
            columns["llm_" + field] = [
                None if llm is None else llm[position] for llm in self.llms]
        columns["attrs"] = pack_mappings(self.attrs)
        return columns


class ProvenanceGraph:
    """The canonical record-derivation DAG for one run, held as columns.

    ``node_columns`` maps each node field (``source_id``, ``schema``,
    ``origin``, ``preview``, ``fp``) to a list; node ``i`` of the lists
    has id ``i + 1``.  ``event_columns`` maps ``op``, ``reason`` (None
    for an emit, whose kind it implies), the flattened ``llm_*`` summary
    fields and ``attrs`` (stored per key set, see
    :mod:`repro.obs.columns`) to lists, and holds each event's parent and
    child ids as flat lists cut by ``parent_ends``/``child_ends``.

    Serializable (``to_columns``, ``to_dict``/``from_dict``, ``to_json``)
    and hashable (``signature``): ``to_dict`` renders the row shape (one
    dict per node and per event), and the JSON and signature are those
    of the row shape.  ``why``/``why_not`` answer the two PalimpChat
    explanation questions purely from the canonical form, so their
    results are byte-identical wherever the graph is.
    """

    def __init__(self, ops: List[str], nodes: Dict[str, List[Any]],
                 events: Dict[str, Any], output_ids: List[int]):
        self.ops = ops
        self.node_columns = nodes
        self.event_columns = events
        self.output_ids = output_ids
        self._rid_to_cid: Dict[int, int] = {}
        #: Built on first use: each event's row within its attribute
        #: key set, and the per-node event index ``why``/``why_not`` read.
        self._attr_positions: Optional[List[int]] = None
        self._by_node: Optional[tuple] = None

    # -- serialization --------------------------------------------------

    def to_columns(self) -> Dict[str, Any]:
        """The columnar payload a run registry stores (``provenance.json``)."""
        return {
            "format": PROVENANCE_COLUMNS_FORMAT,
            "ops": self.ops,
            "nodes": self.node_columns,
            "events": self.event_columns,
            "output_ids": self.output_ids,
        }

    def to_dict(self) -> Dict[str, Any]:
        """The row shape: one dict per node and per event."""
        return {
            "ops": self.ops,
            "nodes": self.nodes,
            "events": self.events,
            "output_ids": self.output_ids,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ProvenanceGraph":
        """Rebuild a graph from :meth:`to_columns` or :meth:`to_dict`
        output (the rows earlier registries wrote)."""
        if payload.get("format") == PROVENANCE_COLUMNS_FORMAT:
            return cls(list(payload["ops"]), payload["nodes"],
                       payload["events"], list(payload["output_ids"]))
        rows = payload["nodes"]
        events = _EventColumns()
        for event in payload["events"]:
            llm = event["llm"]
            events.append(
                event["op"], event["reason"], event["parents"],
                event["children"],
                None if llm is None else tuple(
                    llm[field] for field in _LLM_FIELDS),
                event["attrs"])
        return cls(
            ops=list(payload["ops"]),
            nodes={field: [row[field] for row in rows]
                   for field in _NODE_FIELDS},
            events=events.columns(),
            output_ids=list(payload["output_ids"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), default=str, sort_keys=True)

    def signature(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.node_columns["fp"])

    def event_count(self) -> int:
        return len(self.event_columns["op"])

    def __repr__(self) -> str:
        return (
            f"ProvenanceGraph(nodes={len(self)}, "
            f"events={self.event_count()}, outputs={len(self.output_ids)})"
        )

    # -- rows -----------------------------------------------------------

    @property
    def nodes(self) -> List[Dict[str, Any]]:
        """Every node as a row dict (rendered on each read)."""
        return [self._node_row(index) for index in range(len(self))]

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Every canonical event as a row dict (rendered on each read)."""
        return [self._event_row(index) for index in range(self.event_count())]

    def _node_row(self, index: int) -> Dict[str, Any]:
        row = {"id": index + 1}
        for field in _NODE_FIELDS:
            row[field] = self.node_columns[field][index]
        return row

    def _event_row(self, index: int) -> Dict[str, Any]:
        columns = self.event_columns
        op, reason = columns["op"][index], columns["reason"][index]
        return {
            "op": op,
            "op_label": self.ops[op],
            "kind": "emit" if reason is None else "drop",
            "reason": reason,
            "parents": self._parents(index),
            "children": self._children(index),
            "llm": self._llm(index),
            "attrs": self._attrs(index),
        }

    def _parents(self, index: int) -> List[int]:
        ends = self.event_columns["parent_ends"]
        return self.event_columns["parents"][
            ends[index - 1] if index else 0:ends[index]]

    def _children(self, index: int) -> List[int]:
        ends = self.event_columns["child_ends"]
        return self.event_columns["children"][
            ends[index - 1] if index else 0:ends[index]]

    def _llm(self, index: int) -> Optional[Dict[str, Any]]:
        columns = self.event_columns
        if columns["llm_calls"][index] is None:
            return None
        return {field: columns["llm_" + field][index]
                for field in _LLM_FIELDS}

    def _attrs(self, index: int) -> Dict[str, Any]:
        packed = self.event_columns["attrs"]
        if self._attr_positions is None:
            self._attr_positions = mapping_positions(packed)
        return mapping_at(packed, index, self._attr_positions)

    def edges(self) -> Iterator[Tuple[List[int], List[int]]]:
        """Each event's (parent ids, child ids), in canonical order."""
        columns = self.event_columns
        parents, children = columns["parents"], columns["children"]
        parent_start = child_start = 0
        for parent_end, child_end in zip(columns["parent_ends"],
                                         columns["child_ends"]):
            yield (parents[parent_start:parent_end],
                   children[child_start:child_end])
            parent_start, child_start = parent_end, child_end

    # -- lookups --------------------------------------------------------

    def canonical_id(self, record) -> Optional[int]:
        """Canonical id of an in-memory record from the producing run."""
        return self._rid_to_cid.get(record.record_id)

    def node(self, node_id: int) -> Dict[str, Any]:
        if not 1 <= node_id <= len(self):
            raise ProvenanceError(
                f"no record {node_id} in this provenance graph "
                f"(ids run 1..{len(self)})")
        return self._node_row(node_id - 1)

    def roots(self) -> List[Dict[str, Any]]:
        return [
            self._node_row(index)
            for index, origin in enumerate(self.node_columns["origin"])
            if origin != "derived"
        ]

    def find_sources(self, source_id: str) -> List[Dict[str, Any]]:
        """Root nodes matching ``source_id``.

        Tries an exact source-id match, then source-id containment, then
        content-preview containment (datasets often share one source id,
        so "why not paper_003?" matches on the scanned filename/content).
        """
        roots = self.roots()
        exact = [n for n in roots if n["source_id"] == source_id]
        if exact:
            return exact
        contained = [
            n for n in roots
            if n["source_id"] and source_id in n["source_id"]
        ]
        if contained:
            return contained
        return [n for n in roots if source_id in n["preview"]]

    def output_node_for(self, fp: str) -> Optional[int]:
        """The first output node whose record fingerprint is ``fp``."""
        fps = self.node_columns["fp"]
        for node_id in self.output_ids:
            if fps[node_id - 1] == fp:
                return node_id
        return None

    def _index(self) -> tuple:
        """Per node, in event order: the event that produced it (first
        one listing it as a child but not a parent), the pass-through
        events it survived, the drops and the derivations it fed, and
        the output ids as a set."""
        if self._by_node is None:
            produced: Dict[int, int] = {}
            journeys: Dict[int, List[int]] = {}
            drops: Dict[int, List[int]] = {}
            derives: Dict[int, List[int]] = {}
            reasons = self.event_columns["reason"]
            for index, (parents, children) in enumerate(self.edges()):
                inside = set(children)
                for node in inside.difference(parents):
                    produced.setdefault(node, index)
                for node in dict.fromkeys(parents):
                    if reasons[index] is not None:
                        found = drops
                    elif node in inside:
                        found = journeys
                    else:
                        found = derives
                    found.setdefault(node, []).append(index)
            self._by_node = (produced, journeys, drops, derives,
                             set(self.output_ids))
        return self._by_node

    def _view(self, index: Optional[int]) -> Optional[Dict[str, Any]]:
        """The stable, user-facing projection of canonical event ``index``."""
        if index is None:
            return None
        columns = self.event_columns
        op, reason = columns["op"][index], columns["reason"][index]
        view = {
            "op": op,
            "op_label": self.ops[op],
            "kind": "emit" if reason is None else "drop",
        }
        if reason:
            view["reason"] = reason
        attrs = self._attrs(index)
        if attrs:
            view["attrs"] = dict(sorted(attrs.items()))
        llm = self._llm(index)
        if llm:
            view["llm"] = llm
        return view

    # -- why ------------------------------------------------------------

    def why(self, record_id: int, _depth: int = 0) -> Dict[str, Any]:
        """Full derivation tree of ``record_id`` (a canonical node id).

        Each level reports the node, the event that produced it (with
        per-hop LLM cost), the pass-through hops it survived, and the
        recursively-explained parents.  Roots report their origin
        instead of a producing event.
        """
        node = self.node(record_id)
        produced_by, journeys, _, _, outputs = self._index()
        produced = produced_by.get(record_id)
        parents = []
        if produced is not None:
            seen = set()
            for pid in self._parents(produced):
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
            "in_output": node["id"] in outputs,
            "produced_by": self._view(produced),
            "hops": [self._view(e) for e in journeys.get(record_id, ())],
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
        _, journeys, drops, derives, outputs = self._index()
        base = {
            "id": node["id"],
            "source_id": node["source_id"],
            "schema": node["schema"],
            "journey": [self._view(e) for e in journeys.get(node_id, ())],
        }
        if node_id in seen:
            base["status"] = "cycle"
            return base
        seen.add(node_id)
        if node_id in outputs:
            base["status"] = "in_output"
            return base
        dropped = drops.get(node_id)
        derived = derives.get(node_id)
        if dropped and derived:
            # An aggregate folded it in *and* produced an output record.
            base["status"] = "folded"
            base["dropped_by"] = self._view(dropped[0])
            base["children"] = [
                self._fate(cid, seen)
                for e in derived for cid in self._children(e)
            ]
            return base
        if dropped:
            base["status"] = "dropped"
            base["dropped_by"] = self._view(dropped[0])
            return base
        if derived:
            base["status"] = "derived"
            base["children"] = [
                self._fate(cid, seen)
                for e in derived for cid in self._children(e)
            ]
            return base
        base["status"] = "dangling"
        return base


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
