"""Incremental execution: delta detection + provenance-driven recompute.

PalimpChat's interactive loop re-runs the same pipeline as users refine
queries and corpora drift.  A cold re-run pays for every document again,
even though record-level provenance (PR 5) knows exactly which outputs
derive from which inputs.  This module turns that knowledge into a
performance feature:

1. **Source manifests** — every run records one entry per source document
   (:func:`build_source_manifest`): a stable key, the oracle content
   fingerprint, and the record fingerprint that provenance roots carry.
   Both fingerprints are memoized through :mod:`repro.llm.memo`, so a warm
   manifest build re-hashes only documents whose text actually changed.

2. **Delta detection** — :func:`diff_manifests` compares the live source
   against a prior run's manifest into added / changed / dropped /
   unchanged documents (a :class:`ManifestDelta`).

3. **Delta recompute** — the re-run serves every document from the
   cheapest of three tiers that reproduces it exactly:

   * **spliced document** — on the inline schedules a capturing run
     records, per source document, its *journey* through the plan's
     streaming prefix (:class:`JourneyLog`): per operator visit the clock
     charges, the calls made, the records emitted, the provenance event.
     An unchanged document whose journey the base run holds never walks
     the operator chain again: the journey is replayed — the same clock
     advances in the same order, the same ledger rows (budgets are
     charged, quotas abort at the same call), the same spans, stats and
     provenance, its output records rebuilt onto the live source record —
     and the operators themselves (prompting, fingerprinting, UDFs) are
     skipped.  Everything at and after the first operator that is not
     record-local (a barrier, a limit, a join) runs as always.
   * **replayed call** — where a document does walk the chain (other
     schedules, a re-optimized plan, a base without journeys) its LLM
     calls are looked up in the base run's call log
     (:class:`repro.llm.replay.ReplayLog`) one by one.
   * **fresh call** — added and changed documents, and whatever the log
     does not hold, are paid for.

   All three charge the cold run's exact accounting, so records, stats,
   traces, and provenance come out byte-identical to a cold run while the
   re-run's own bill counts only the fresh calls.
   :func:`delta_impact` walks the base ProvenanceGraph forward from the
   delta to report which outputs were invalidated vs. reusable.

The :class:`IncrementalReport` attached to ``ExecutionStats.incremental``
summarizes all three: the delta, the provenance impact, and the
fresh-vs-reused bill with its cost/time speedups over cold.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.errors import ExecutionError
from repro.core.sources import DataSource
from repro.llm.client import meter_call
from repro.llm.memo import TextMemo, register_memo
from repro.llm.oracle import fingerprint_text
from repro.obs.trace import NULL_TRACER

__all__ = [
    "IncrementalReport",
    "JourneyLog",
    "ManifestDelta",
    "build_source_manifest",
    "delta_impact",
    "diff_manifests",
    "prefix_identity",
    "record_fingerprint",
]

#: Manifest payload format version (persisted as ``manifest.json``).
MANIFEST_VERSION = 1

#: Journey payload format version (persisted as ``journeys.json``).
JOURNEY_VERSION = 1

#: How :func:`prefix_identity` marks a UDF whose body it cannot read.
OPAQUE_UDF = "opaque"

#: Record-JSON -> sha256[:16], shared with provenance node fingerprints.
#: Memoized because a warm re-run re-fingerprints an unchanged corpus:
#: the SHA-256 over each document's full record JSON is the dominant
#: manifest cost, and the memo turns it into one dict probe per document.
_record_fp_memo = register_memo(TextMemo("record_fp"))


def record_fingerprint(payload: str) -> str:
    """``sha256(record.to_json())[:16]`` — the provenance node ``fp``.

    Memoized on the JSON payload through :mod:`repro.llm.memo` so warm
    manifest builds are O(changed documents) in hashing work.
    """
    return _record_fp_memo.get_or_compute(
        payload,
        lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()[:16],
    )


def build_source_manifest(source: DataSource) -> Dict[str, Any]:
    """Per-document manifest of ``source``: what a later run diffs against.

    Each entry carries a stable key (the record's ``filename`` field when
    the schema has one, else ``dataset_id#index``), the oracle content
    fingerprint of the document text, and the record fingerprint matching
    the provenance graph's root-node ``fp``.
    """
    entries: List[Dict[str, Any]] = []
    for index, record in enumerate(source):
        filename = record.get("filename")
        key = str(filename) if filename else f"{source.dataset_id}#{index}"
        entries.append({
            "key": key,
            "fingerprint": fingerprint_text(record.document_text()),
            "record_fp": record_fingerprint(record.to_json()),
        })
    return {
        "version": MANIFEST_VERSION,
        "dataset_id": source.dataset_id,
        "count": len(entries),
        "entries": entries,
    }


@dataclass
class ManifestDelta:
    """The document-level difference between two source manifests."""

    added: List[str] = field(default_factory=list)
    changed: List[str] = field(default_factory=list)
    dropped: List[str] = field(default_factory=list)
    unchanged: List[str] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.changed or self.dropped)

    @property
    def total_live(self) -> int:
        """Documents in the live source."""
        return len(self.added) + len(self.changed) + len(self.unchanged)

    @property
    def fresh_docs(self) -> int:
        """Documents the incremental run must actually pay for."""
        return len(self.added) + len(self.changed)

    @property
    def fresh_fraction(self) -> float:
        if self.total_live == 0:
            return 1.0
        return self.fresh_docs / self.total_live

    def to_dict(self) -> Dict[str, Any]:
        return {
            "added": len(self.added),
            "changed": len(self.changed),
            "dropped": len(self.dropped),
            "unchanged": len(self.unchanged),
        }

    def __repr__(self) -> str:
        return (
            f"ManifestDelta(+{len(self.added)} ~{len(self.changed)} "
            f"-{len(self.dropped)} ={len(self.unchanged)})"
        )


def diff_manifests(base: Optional[Dict[str, Any]],
                   live: Dict[str, Any]) -> ManifestDelta:
    """Diff a prior run's manifest against the live source's.

    Documents match on their manifest key; a matched key with a different
    content fingerprint is *changed*.  A missing base manifest makes every
    live document *added* (forcing a cold-priced run).
    """
    base_entries = {
        e["key"]: e for e in (base or {}).get("entries", [])
    }
    delta = ManifestDelta()
    for entry in live.get("entries", []):
        key = entry["key"]
        prior = base_entries.pop(key, None)
        if prior is None:
            delta.added.append(key)
        elif prior["fingerprint"] != entry["fingerprint"]:
            delta.changed.append(key)
        else:
            delta.unchanged.append(key)
    delta.dropped.extend(sorted(base_entries))
    return delta


def _code_identity(code) -> str:
    """A function body's identity that survives a process restart (no
    addresses): bytecode, names and constants, nested bodies included."""
    parts = [code.co_code.hex(), repr(code.co_names)]
    for const in code.co_consts:
        parts.append(_code_identity(const) if hasattr(const, "co_code")
                     else repr(const))
    return "|".join(parts)


def prefix_identity(prefix) -> List[str]:
    """What a base run's streaming prefix and a re-run's must agree on for
    journeys to carry over, one string per operator.

    ``full_op_id`` names the logical operator, the strategy and the model;
    added here is what else decides an operator's calls and outputs but is
    not in the id: the context fraction an ``LLMFilter`` truncates to (the
    optimizer derives it from the corpus, so it can drift with it), the
    description a convert puts in its prompt (the id has the field
    descriptions, not the schema's) and the body of a UDF (the id only has
    its name; a callable without inspectable code is marked
    :data:`OPAQUE_UDF` and never splices).
    """
    identities = []
    for op in prefix:
        identity = f"{op.full_op_id}@{getattr(op, 'context_fraction', 1.0)!r}"
        desc = getattr(op.logical_op, "desc", "")
        if desc:
            identity += "~" + hashlib.sha256(
                desc.encode("utf-8")).hexdigest()[:12]
        udf = getattr(op, "_udf", None)
        if udf is not None:
            code = getattr(udf, "__code__", None)
            identity += "#" + (
                hashlib.sha256(
                    _code_identity(code).encode("utf-8")).hexdigest()[:12]
                if code is not None else OPAQUE_UDF
            )
        identities.append(identity)
    return identities


def _json_faithful(value: Any) -> bool:
    """Would ``value`` come back equal, type for type, from ``json``?"""
    kind = type(value)
    if kind in (str, int, float, bool, type(None)):
        return True
    if kind is list:
        return all(_json_faithful(item) for item in value)
    if kind is dict:
        return all(type(key) is str and _json_faithful(item)
                   for key, item in value.items())
    return False


class JourneyLog:
    """The document journeys of one inline run: recorded, and — on an
    incremental re-run — spliced from the base run's.

    A *journey* is what one source document did in the plan's streaming
    prefix (:attr:`~repro.physical.plan.PhysicalPlan.streaming_prefix`),
    as plain JSON: ``[visits, events]``.  ``visits`` lists the operator
    visits in depth-first order, each ``[charges, outputs]``:

    * ``charges`` — the visit's clock advances in order: a number of
      seconds for local work, or ``[model, kind, task signature, document
      fingerprint, context fraction, operation, input tokens, output
      tokens]`` for a metered call.  The first six are the call's
      :data:`~repro.llm.replay.ReplayKey` (``kind`` is null for calls the
      call log does not hold, i.e. embeddings); cost and latency are not
      stored but re-priced from the model card, as for a replayed call.
    * ``outputs`` — one entry per emitted record: null for the input
      record itself, else the ``[field, value]`` pairs the derived record
      does not share with its input
      (:meth:`~repro.core.records.DataRecord.own_values`), in the order
      they were set.

    ``events`` parallels ``visits`` with the provenance event each
    reported — ``[drop reason or null, attributes, carried LLM usage?]`` —
    and is null when the recording run kept no provenance (such a journey
    cannot serve a run that does).  A document whose visit did something
    a journey cannot express faithfully is recorded as null and always
    walks the chain.

    The log is driven by the inline schedule: :meth:`attach`, then per
    source document :meth:`begin_document` / the prefix meters' visits /
    :meth:`end_document`, then :meth:`detach`.
    """

    def __init__(self, prefix, replay):
        #: Identity of the recorded prefix; a base splices only into a run
        #: whose chosen plan has the same one.
        self.prefix_ids: List[str] = prefix_identity(prefix)
        self._cards = {
            op.model.name: op.model for op in prefix if op.model is not None
        }
        self._replay = replay
        #: One slot per live document in scan order (see :meth:`prime`),
        #: or None when nothing splices.
        self._base: Optional[List[Optional[list]]] = None
        #: This run's journeys in scan order: spliced ones carried over,
        #: walked ones recorded.
        self.documents: List[Optional[list]] = []
        self.spliced = 0
        self._provenance = None
        self._meters: list = []
        # The document in hand: its base journey when splicing ...
        self._journey: Optional[list] = None
        self._cursor = 0
        # ... or the journey being recorded (None once it proved
        # inexpressible), fed from the taps below per visit.
        self._visits: Optional[list] = None
        self._events: Optional[list] = None
        self._advances: List[float] = []
        self._keys: list = []
        self._mark = 0

    # -- run lifecycle ----------------------------------------------------

    def prime(self, base_manifest: Optional[Dict[str, Any]],
              base_journeys: Optional[Dict[str, Any]],
              live_manifest: Dict[str, Any]) -> None:
        """Line the base run's journeys up with the live documents.

        One slot per live document in manifest order — the order the scan
        yields them in: the base journey that reproduces the document, or
        ``None`` where the chain must run.  A journey qualifies when the
        base run walked the same streaming prefix (:func:`prefix_identity`)
        and :func:`diff_manifests` calls the document unchanged *and* its
        whole record (``record_fp``, not just the text the models read) is
        what the base run saw, since derived records copy the other
        fields.  Nothing splices when the base holds no usable journeys
        (recorded before they existed, under another schedule, or for a
        plan optimized differently).
        """
        journeys = base_journeys
        if (not journeys or journeys.get("version") != JOURNEY_VERSION
                or journeys.get("prefix") != self.prefix_ids
                or any(identity.endswith("#" + OPAQUE_UDF)
                       for identity in self.prefix_ids)):
            return
        prior = {
            entry["key"]: (entry, journey)
            for entry, journey in zip(
                (base_manifest or {}).get("entries", []),
                journeys["documents"])
        }
        slots: List[Optional[list]] = []
        for entry in live_manifest["entries"]:
            before, journey = prior.pop(entry["key"], (None, None))
            same = (before is not None
                    and before["fingerprint"] == entry["fingerprint"]
                    and before["record_fp"] == entry["record_fp"])
            slots.append(journey if same else None)
        self._base = slots

    def attach(self, context, meters) -> None:
        """Route ``meters`` (the prefix's) through this log and tap the
        calling thread's clock advances and the call log's keys."""
        self._meters = list(meters)
        for meter in self._meters:
            meter.journeys = self
        context.clock.record_advances(self._advances)
        self._replay.key_tape = self._keys
        self._provenance = (
            context.provenance if context.provenance.enabled else None
        )

    def detach(self, context) -> None:
        for meter in self._meters:
            meter.journeys = None
        context.clock.record_advances(None)
        self._replay.key_tape = None

    def begin_document(self, index: int) -> None:
        journey = None
        if self._base is not None and index < len(self._base):
            journey = self._base[index]
            if (journey is not None and journey[1] is None
                    and self._provenance is not None):
                journey = None  # recorded without the events this run owes
        self._journey = journey
        self._cursor = 0
        if journey is None:
            self._visits = []
            self._events = [] if self._provenance is not None else None

    def end_document(self) -> None:
        journey = self._journey
        if journey is None:
            self.documents.append(
                None if self._visits is None
                else [self._visits, self._events]
            )
            return
        if self._cursor != len(journey[0]):
            raise ExecutionError(
                "a spliced document ended with "
                f"{len(journey[0]) - self._cursor} recorded visit(s) "
                "unserved; the base run's journeys do not match its plan"
            )
        self.spliced += 1
        if journey[1] is not None and self._provenance is None:
            journey = [journey[0], None]  # what this run would have recorded
        self.documents.append(journey)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": JOURNEY_VERSION,
            "prefix": self.prefix_ids,
            "documents": self.documents,
        }

    # -- splicing -----------------------------------------------------------

    def next_visit(self) -> Optional[list]:
        """The recorded visit to serve next, or None when the document in
        hand walks the chain (and is recorded)."""
        journey = self._journey
        if journey is None:
            return None
        visits = journey[0]
        if self._cursor >= len(visits):
            raise ExecutionError(
                "a spliced document reached an operator its recorded "
                "journey never visited; the base run's journeys do not "
                "match its plan"
            )
        self._cursor += 1
        return visits[self._cursor - 1]

    def replay_charges(self, charges: list, context) -> list:
        """Re-issue a recorded visit's clock advances and metered calls, in
        order, through the accounting path a live call takes; returns the
        calls' usage records."""
        clock = context.clock
        ledger = context.ledger
        tracer = context.tracer
        cards = self._cards
        reuse = self._replay.reuse
        usages = []
        for charge in charges:
            if type(charge) is not list:
                clock.advance(charge)
                continue
            card = cards[charge[0]]
            usage = meter_call(
                card, charge[6], charge[7], charge[5], clock, ledger,
                # Embedding calls are metered without an llm.call span.
                NULL_TRACER if card.is_embedding_model else tracer,
            )
            if charge[1] is not None:
                reuse(tuple(charge[:6]), usage)
            usages.append(usage)
        return usages

    def replay_event(self, op, record, outputs, usages) -> None:
        """Report the served visit's provenance event, as the operator
        would have."""
        provenance = self._provenance
        if provenance is None:
            return
        event = self._journey[1][self._cursor - 1]
        if event is None:
            return
        reason, attrs, with_llm = event
        llm = usages if with_llm else None
        if reason is None:
            provenance.emit(op, [record], outputs, llm=llm, **attrs)
        else:
            provenance.drop(op, record, reason, llm=llm, **attrs)

    # -- recording ------------------------------------------------------------

    def begin_visit(self) -> None:
        del self._advances[:]
        del self._keys[:]
        if self._provenance is not None:
            self._mark = self._provenance.event_count()

    def end_visit(self, op, record, outputs, usages) -> None:
        """Record the visit ``op`` just made on ``record`` from what the
        taps saw; anything a journey cannot express faithfully voids the
        document's journey instead."""
        if self._visits is None:
            return
        visit = self._observed_visit(op, record, outputs, usages)
        event = None
        if visit is not None and self._events is not None:
            event = self._observed_event(record, outputs, usages)
            if event is False:
                visit = None
        if visit is None:
            self._visits = self._events = None
            return
        self._visits.append(visit)
        if self._events is not None:
            self._events.append(event)

    def _observed_visit(self, op, record, outputs, usages) -> Optional[list]:
        # Every metered call advanced the clock by exactly its latency, so
        # walking the advances re-interleaves calls and local charges.
        charges: list = []
        keys = self._keys
        calls = logged = 0
        for seconds in self._advances:
            usage = usages[calls] if calls < len(usages) else None
            if usage is None or usage.latency_seconds != seconds:
                charges.append(seconds)
                continue
            calls += 1
            key = keys[logged] if logged < len(keys) else None
            if (key is not None and key[0] == usage.model
                    and key[5] == usage.operation):
                logged += 1
                head = list(key)
            else:
                head = [usage.model, None, None, None, None, usage.operation]
            charges.append(
                head + [usage.input_tokens, usage.output_tokens])
        if calls != len(usages) or logged != len(keys):
            return None
        if any(usage.model not in self._cards for usage in usages):
            return None
        latencies = {usage.latency_seconds for usage in usages}
        if any(type(charge) is not list and charge in latencies
               for charge in charges):
            return None  # which advance was the call is ambiguous
        schema = op.logical_op.output_schema
        derived: list = []
        for output in outputs:
            if output is record:
                derived.append(None)
                continue
            if (output.schema is not schema
                    or output.parent is not record
                    or len(output.parents) > 1
                    or output.source_id != record.source_id):
                return None
            values = output.own_values()
            if not _json_faithful(values):
                return None
            # Pairs, not a dict: the order the fields were set in shapes a
            # text-less record's document text, and must survive JSON.
            derived.append([[name, value] for name, value in values.items()])
        return [charges, derived]

    def _observed_event(self, record, outputs, usages):
        """The visit's provenance event in journey form, None when it
        reported none, False when it reported what cannot be replayed."""
        raw = self._provenance.events_since(self._mark)
        if not raw:
            return None
        event = raw[0]
        children = (
            [output.record_id for output in outputs]
            if event["kind"] == "emit" else []
        )
        llm = event["llm"]
        if (len(raw) > 1 or event["parents"] != [record.record_id]
                or event["children"] != children
                or not _json_faithful(event["attrs"])
                # Replayed with all of the visit's calls or none of them.
                or (llm is not None and llm["calls"] != len(usages))):
            return False
        return [event["reason"], event["attrs"], llm is not None]


def delta_impact(graph, delta: ManifestDelta,
                 base_manifest: Dict[str, Any]) -> Dict[str, int]:
    """Which base-run outputs does the delta invalidate?

    Walks the base run's :class:`~repro.obs.provenance.ProvenanceGraph`
    forward (parents -> children over emit/drop events) from the root
    nodes whose ``fp`` matches a changed or dropped document's
    ``record_fp``.  Outputs reachable from the delta are *invalidated*;
    the rest are *reusable* (their whole derivation replays).  Added
    documents have no base nodes, so they contribute fresh work but no
    invalidation.
    """
    if graph is None:
        return {"invalidated_outputs": 0, "reusable_outputs": 0,
                "touched_nodes": 0}
    stale_keys = set(delta.changed) | set(delta.dropped)
    stale_fps = {
        e["record_fp"] for e in base_manifest.get("entries", [])
        if e["key"] in stale_keys
    }
    frontier = [
        n["id"] for n in graph.roots() if n["fp"] in stale_fps
    ]
    reached: Set[int] = set(frontier)
    # One pass over the events builds parent -> children; the walk then
    # costs O(touched nodes), not O(touched nodes x events).
    children_of: Dict[int, List[int]] = {}
    for event in graph.events:
        for parent in event["parents"]:
            children_of.setdefault(parent, []).extend(event["children"])
    # Forward walk: events are a DAG over canonical ids, so a worklist with
    # a visited set terminates; children of a touched parent are touched.
    while frontier:
        for child in children_of.get(frontier.pop(), ()):
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    invalidated = len(set(graph.output_ids) & reached)
    return {
        "invalidated_outputs": invalidated,
        "reusable_outputs": len(graph.output_ids) - invalidated,
        "touched_nodes": len(reached),
    }


@dataclass
class IncrementalReport:
    """What an incremental run reused, recomputed, and saved.

    Attached to ``ExecutionStats.incremental``; excluded from stats
    serialization and comparison, because the run's *visible* accounting
    is deliberately byte-identical to the cold run it reproduces.  Costs
    are exact ledger splits; times are serial sums of per-call simulated
    latency (the apples-to-apples metric across executors, independent of
    how a particular executor overlapped the calls).
    """

    base_run_id: str
    #: "replay" (primed from the base call log) or "cold" (the pricing
    #: decided replaying would not pay, or there was nothing to replay).
    mode: str
    delta: ManifestDelta
    impact: Dict[str, int] = field(default_factory=dict)
    replayed_calls: int = 0
    fresh_calls: int = 0
    reused_cost_usd: float = 0.0
    reused_llm_seconds: float = 0.0
    fresh_cost_usd: float = 0.0
    fresh_llm_seconds: float = 0.0
    #: Scanned documents served whole from the base run's journeys, and
    #: those that walked the operator chain (replaying or paying call by
    #: call).  ``replayed_calls`` counts the spliced documents' calls too.
    spliced_docs: int = 0
    executed_docs: int = 0
    pricing: Optional[Any] = None

    @property
    def cold_cost_usd(self) -> float:
        return self.reused_cost_usd + self.fresh_cost_usd

    @property
    def cold_llm_seconds(self) -> float:
        return self.reused_llm_seconds + self.fresh_llm_seconds

    @staticmethod
    def _ratio(total: float, fresh: float) -> float:
        if fresh <= 0.0:
            return float("inf") if total > 0.0 else 1.0
        return total / fresh

    @property
    def speedup_cost(self) -> float:
        """Cold LLM spend over the incremental run's own spend."""
        if self.fresh_calls == 0:
            # Fully replayed: free, modulo float residue in the tallies.
            return float("inf") if self.cold_cost_usd > 0.0 else 1.0
        return self._ratio(self.cold_cost_usd, self.fresh_cost_usd)

    @property
    def speedup_time(self) -> float:
        """Cold serial LLM seconds over the incremental run's own."""
        if self.fresh_calls == 0:
            return float("inf") if self.cold_llm_seconds > 0.0 else 1.0
        return self._ratio(self.cold_llm_seconds, self.fresh_llm_seconds)

    def to_dict(self) -> Dict[str, Any]:
        def _round_ratio(value: float) -> Any:
            return "inf" if value == float("inf") else round(value, 2)

        payload: Dict[str, Any] = {
            "base_run_id": self.base_run_id,
            "mode": self.mode,
            "delta": self.delta.to_dict(),
            "impact": dict(self.impact),
            "documents": {"spliced": self.spliced_docs,
                          "executed": self.executed_docs},
            "replayed_calls": self.replayed_calls,
            "fresh_calls": self.fresh_calls,
            "reused_cost_usd": round(self.reused_cost_usd, 6),
            "reused_llm_seconds": round(self.reused_llm_seconds, 3),
            "fresh_cost_usd": round(self.fresh_cost_usd, 6),
            "fresh_llm_seconds": round(self.fresh_llm_seconds, 3),
            "speedup_cost": _round_ratio(self.speedup_cost),
            "speedup_time": _round_ratio(self.speedup_time),
        }
        if self.pricing is not None:
            payload["pricing"] = self.pricing.to_dict()
        return payload

    def render(self) -> str:
        delta = self.delta
        lines = [
            "=== Incremental execution ===",
            f"base run:          {self.base_run_id}",
            f"mode:              {self.mode}",
            f"source delta:      +{len(delta.added)} added, "
            f"~{len(delta.changed)} changed, -{len(delta.dropped)} dropped, "
            f"={len(delta.unchanged)} unchanged",
        ]
        if self.impact:
            lines.append(
                f"base outputs:      {self.impact.get('invalidated_outputs', 0)} "
                f"invalidated / {self.impact.get('reusable_outputs', 0)} reusable"
            )
        lines.extend([
            f"documents:         {self.spliced_docs} spliced / "
            f"{self.executed_docs} executed",
            f"LLM calls:         {self.replayed_calls} replayed / "
            f"{self.fresh_calls} fresh",
            f"reused (replayed): ${self.reused_cost_usd:.4f}, "
            f"{self.reused_llm_seconds:.1f} llm-s",
            f"fresh (paid):      ${self.fresh_cost_usd:.4f}, "
            f"{self.fresh_llm_seconds:.1f} llm-s",
        ])
        speedup_cost = self.speedup_cost
        speedup_time = self.speedup_time
        cost_text = ("inf" if speedup_cost == float("inf")
                     else f"{speedup_cost:.1f}x")
        time_text = ("inf" if speedup_time == float("inf")
                     else f"{speedup_time:.1f}x")
        lines.append(
            f"speedup vs cold:   {cost_text} cost, {time_text} llm time"
        )
        return "\n".join(lines)
