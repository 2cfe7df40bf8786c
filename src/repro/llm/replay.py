"""Persisted LLM call log: capture on a base run, replay on a re-run.

Incremental execution (:mod:`repro.execution.incremental`) serves LLM calls
whose (model, task, document) identity already appears in a prior run's
call log from that log instead of "calling the model".  Two tiers reuse a
logged call: an operator that does run asks its client, which finds the
call here (:meth:`ReplayLog.lookup`) — the *replayed call* tier, used by
every schedule; and a document whose whole journey is spliced from the base
run never reaches the operator, and its journey names the logged calls it
made (the *spliced document* tier, inline schedules only).  Either way the
call charges the clock and ledger exactly what the cold call would have
charged — recomputed from the recorded token counts through the model
card's pure pricing functions — so records, stats, traces, and provenance
come out byte-identical to a cold run.  What reuse *saves* is tallied
separately: the re-run's own bill (its :class:`~repro.execution.incremental
.IncrementalReport`) counts only the fresh calls, the simulated analogue of
serving unchanged derivations from a result store instead of the provider.

A :class:`ReplayLog` plays both roles:

* **capture** — every fresh call records ``key -> (value, token counts)``;
  the registry persists the log as ``calls.json`` next to the run.
* **replay** — a log primed from a prior run's ``calls.json`` answers
  lookups; each reused call (:meth:`ReplayLog.reuse`) is tallied as
  *reused* spend and its base row carried into this run's log as it is.

Keys extend the :class:`~repro.llm.cache.CallCache` identity (model, task
kind, task signature, document fingerprint, context fraction) with the
operation label, so two operators asking the same question never share an
entry with mismatched accounting.  The task signature is the client's, one
per prompt it asks (``llm/client.py`` ``_PromptFrame``): it covers
everything the prompt says around the document, so an edited field or
schema description misses the log and runs fresh.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["CallRecord", "ReplayLog", "ReuseSummary"]

#: (model, kind, task signature, document fingerprint, context fraction,
#: operation label)
ReplayKey = Tuple[str, str, str, str, float, str]


@dataclass(frozen=True)
class CallRecord:
    """One captured call: the answer plus its batch-invariant token counts.

    Latency and cost are *not* stored: both are pure functions of the token
    counts and the model card, and latency additionally depends on the
    replaying run's batch composition (overhead amortization), so they are
    recomputed at replay time through the exact code path a cold call uses.
    """

    value: Any
    input_tokens: int
    output_tokens: int
    #: The ``calls.json`` row this record was primed from, when it was:
    #: already JSON-normal, so a re-run that reuses the call carries the
    #: row into its own payload without re-normalizing it.
    row: Optional[Dict[str, Any]] = field(default=None, compare=False,
                                          repr=False)


@dataclass
class ReuseSummary:
    """Deterministic totals over the replayed (reused) calls of one run."""

    calls: int = 0
    cost_usd: float = 0.0
    seconds: float = 0.0
    input_tokens: int = 0
    output_tokens: int = 0


#: Types a JSON round-trip returns unchanged (exact types: a ``str`` or
#: ``int`` subclass comes back as its base type, a float may be NaN).
_JSON_SCALARS = frozenset((type(None), bool, int, str))


def _normalize_value(value: Any) -> Any:
    """JSON round-trip, matching what a disk-persisted log would return.

    Priming from memory and priming from ``calls.json`` must hand the
    operators identical payloads, so values are normalized at capture
    serialization time rather than lazily on load.  What the round-trip
    would return unchanged — a JSON scalar (judge answers) or a flat dict
    of ``str`` keys to scalars (extract answers) — skips it; anything
    else pays for it.
    """
    kind = type(value)
    if kind in _JSON_SCALARS:
        return value
    if kind is dict and all(
            type(key) is str and type(item) in _JSON_SCALARS
            for key, item in value.items()):
        return dict(value)
    return json.loads(json.dumps(value, default=str))


class ReplayLog:
    """Thread-safe LLM call log (see module docstring).

    The primed entry table is never mutated — one table, built once per
    base snapshot, is shared by every re-run against it — and is read
    lock-free by executor worker threads (single dict lookups of immutable
    records); capture and reuse tallies are compound mutations and take
    the lock.
    """

    _GUARDED_BY = {
        "_captured": "_lock",
        "_reused": "_lock",
    }

    def __init__(self, entries: Optional[Dict[ReplayKey, CallRecord]] = None):
        #: Shared and read-only (see :meth:`table_from_payload`), so
        #: worker threads read it without locking.
        self._entries: Dict[ReplayKey, CallRecord] = (
            entries if entries is not None else {}
        )
        self._captured: Dict[ReplayKey, CallRecord] = {}
        #: (cost, seconds, in_tokens, out_tokens) per reused call, in
        #: thread arrival order (the totals are exact sums, so the order
        #: does not show).
        self._reused: List[Tuple[float, float, int, int]] = []
        self._lock = threading.Lock()
        #: When a list, every captured key (fresh or reused) is appended
        #: to it — how journey capture on the inline schedule learns which
        #: logged calls an operator visit made.  Single-threaded use only.
        self.key_tape: Optional[List[ReplayKey]] = None

    # -- key construction ----------------------------------------------

    @staticmethod
    def make_key(model: str, kind: str, task_signature: str,
                 fingerprint: str, context_fraction: float,
                 operation: str) -> ReplayKey:
        return (model, kind, task_signature, fingerprint,
                round(context_fraction, 4), operation)

    # -- replay ---------------------------------------------------------

    @property
    def primed(self) -> bool:
        """Does this log hold prior-run entries to replay from?"""
        return bool(self._entries)

    def lookup(self, key: ReplayKey) -> Optional[CallRecord]:
        """The prior run's record for ``key``, or None (fresh call)."""
        return self._entries.get(key)

    def reuse(self, key: ReplayKey, usage) -> None:
        """One call of this run was served from the primed entry for
        ``key`` (replayed by a client, or spliced with its document's
        journey): tally ``usage`` — its cold-equivalent accounting — as
        reused and carry the base entry into this run's log.

        Raises ``KeyError`` when the base log has no such call (a journey
        that names calls its run's ``calls.json`` lacks).
        """
        entry = self._entries[key]
        with self._lock:
            self._captured[key] = entry
            self._reused.append((
                usage.cost_usd, usage.latency_seconds,
                usage.input_tokens, usage.output_tokens,
            ))
            if self.key_tape is not None:
                self.key_tape.append(key)

    def reused_summary(self) -> ReuseSummary:
        """Deterministic totals over every reused call so far: the float
        sums are exact (``math.fsum``), hence the same whichever order
        worker threads reported the calls in."""
        with self._lock:
            rows = list(self._reused)
        return ReuseSummary(
            calls=len(rows),
            cost_usd=math.fsum(row[0] for row in rows),
            seconds=math.fsum(row[1] for row in rows),
            input_tokens=sum(row[2] for row in rows),
            output_tokens=sum(row[3] for row in rows),
        )

    # -- capture --------------------------------------------------------

    def record(self, key: ReplayKey, value: Any, input_tokens: int,
               output_tokens: int) -> None:
        """Capture one fresh call of *this* run.

        Answers are pure functions of the key, so concurrent writers racing
        on the same key store equal records.
        """
        entry = CallRecord(value, input_tokens, output_tokens)
        with self._lock:
            self._captured[key] = entry
            if self.key_tape is not None:
                self.key_tape.append(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._captured)

    # -- (de)serialization ----------------------------------------------

    def to_payload(self) -> List[Dict[str, Any]]:
        """JSON-ready call log of this run, sorted for determinism.

        Reused calls contribute their base rows as they are; only fresh
        captures are normalized.
        """
        with self._lock:
            items = dict(self._captured)
        rows = []
        # Plain tuple order: every part but the context fraction is a
        # string, and fractions in (0, 1] sort as numbers the way their
        # decimal strings do.
        for key in sorted(items):
            entry = items[key]
            rows.append(entry.row if entry.row is not None else {
                "key": list(key),
                "value": _normalize_value(entry.value),
                "input_tokens": entry.input_tokens,
                "output_tokens": entry.output_tokens,
            })
        return rows

    @staticmethod
    def table_from_payload(payload) -> Dict[ReplayKey, CallRecord]:
        """The key -> record table of a persisted ``calls.json`` payload.

        Build it once per base run (:meth:`repro.obs.registry.RunSnapshot
        .replay_table` does) and hand it to each re-run's fresh log.
        """
        entries: Dict[ReplayKey, CallRecord] = {}
        for row in payload or []:
            raw = row["key"]
            key = (str(raw[0]), str(raw[1]), str(raw[2]), str(raw[3]),
                   float(raw[4]), str(raw[5]))
            entries[key] = CallRecord(
                value=row["value"],
                input_tokens=int(row["input_tokens"]),
                output_tokens=int(row["output_tokens"]),
                row=row,
            )
        return entries

    @classmethod
    def from_payload(cls, payload) -> "ReplayLog":
        """Prime a log from a persisted ``calls.json`` payload."""
        return cls(cls.table_from_payload(payload))
