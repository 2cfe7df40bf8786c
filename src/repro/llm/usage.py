"""Usage records and the usage ledger.

Every simulated LLM call produces an :class:`LLMUsage` record; a
:class:`UsageLedger` aggregates them per model and per logical operation so
execution statistics (Fig. 5 of the paper) can report exact token counts,
dollar costs, and call counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class LLMUsage:
    """One simulated LLM call's accounting record."""

    model: str
    input_tokens: int
    output_tokens: int
    cost_usd: float
    latency_seconds: float
    operation: str = ""  # e.g. "filter", "convert:ClinicalData", "agent"
    virtual_timestamp: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


@dataclass
class UsageTotals:
    """Aggregated usage for one grouping key."""

    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost_usd: float = 0.0
    latency_seconds: float = 0.0

    def add(self, usage: LLMUsage) -> None:
        self.calls += 1
        self.input_tokens += usage.input_tokens
        self.output_tokens += usage.output_tokens
        self.cost_usd += usage.cost_usd
        self.latency_seconds += usage.latency_seconds

    def merge(self, other: "UsageTotals") -> None:
        self.calls += other.calls
        self.input_tokens += other.input_tokens
        self.output_tokens += other.output_tokens
        self.cost_usd += other.cost_usd
        self.latency_seconds += other.latency_seconds

    @property
    def total_tokens(self) -> int:
        return self.input_tokens + self.output_tokens


class QuotaExceededError(RuntimeError):
    """A spend cap was breached (raised *after* the breach is recorded).

    The breaching :class:`LLMUsage` is always charged to the
    :class:`BudgetMeter` before this error propagates, so accounting is
    never lost: the meter's totals include the partial run that aborted.
    """

    def __init__(self, message: str, *, spent_cost_usd: float = 0.0,
                 spent_tokens: int = 0,
                 max_cost_usd: Optional[float] = None,
                 max_tokens: Optional[int] = None):
        super().__init__(message)
        self.spent_cost_usd = spent_cost_usd
        self.spent_tokens = spent_tokens
        self.max_cost_usd = max_cost_usd
        self.max_tokens = max_tokens


class _MeterReading:
    """A point-in-time reading of a :class:`BudgetMeter`.

    Taken while the meter's lock is held, then used lock-free for cap
    checks and error messages — so one consistent (cost, tokens, caps)
    view backs each decision, never a torn mix of two updates.
    """

    __slots__ = ("cost_usd", "tokens", "max_cost_usd", "max_tokens")

    def __init__(self, cost_usd: float, tokens: int,
                 max_cost_usd: Optional[float],
                 max_tokens: Optional[int]):
        self.cost_usd = cost_usd
        self.tokens = tokens
        self.max_cost_usd = max_cost_usd
        self.max_tokens = max_tokens

    def over(self, strict: bool) -> bool:
        if self.max_cost_usd is not None:
            if (self.cost_usd > self.max_cost_usd if strict
                    else self.cost_usd >= self.max_cost_usd):
                return True
        if self.max_tokens is not None:
            if (self.tokens > self.max_tokens if strict
                    else self.tokens >= self.max_tokens):
                return True
        return False

    def raise_if(self, stage: str, strict: bool) -> None:
        if not self.over(strict):
            return
        raise QuotaExceededError(
            f"quota exhausted ({stage}): spent ${self.cost_usd:.6f} / "
            f"{self.tokens} tokens against caps "
            f"max_cost_usd={self.max_cost_usd}, "
            f"max_tokens={self.max_tokens}",
            spent_cost_usd=self.cost_usd,
            spent_tokens=self.tokens,
            max_cost_usd=self.max_cost_usd,
            max_tokens=self.max_tokens,
        )


class BudgetMeter:
    """Thread-safe cumulative spend tracker with optional hard caps.

    A meter outlives any single run: a tenant's meter is shared by every
    session and every pipeline execution of that tenant, so quotas apply
    to the *sum* of their spend.  Per-run :class:`UsageLedger` objects
    stay fresh (stats remain per-run); they :meth:`charge` the shared
    meter as records land.

    Cap semantics — a run that lands *exactly* at a cap succeeds:

    * :meth:`charge` raises :class:`QuotaExceededError` only when the
      accumulated spend goes strictly *over* a cap (the breaching usage
      is recorded first — no lost accounting);
    * :meth:`precheck` (the pre-turn gate) raises when no headroom
      remains (spent >= cap), so a fully consumed budget rejects the
      next turn before any work is spent;
    * :meth:`exceeded` reports whether a strict breach has happened —
      the cooperative abort checkpoint between operators polls it.
    """

    _GUARDED_BY = {
        "_cost_usd": "_lock", "_tokens": "_lock", "_calls": "_lock",
        "_max_cost_usd": "_lock", "_max_tokens": "_lock",
    }

    def __init__(self, max_cost_usd: Optional[float] = None,
                 max_tokens: Optional[int] = None):
        if max_cost_usd is not None and max_cost_usd < 0:
            raise ValueError(
                f"max_cost_usd must be >= 0, got {max_cost_usd}")
        if max_tokens is not None and max_tokens < 0:
            raise ValueError(f"max_tokens must be >= 0, got {max_tokens}")
        self._lock = threading.Lock()
        self._max_cost_usd = max_cost_usd
        self._max_tokens = max_tokens
        self._cost_usd = 0.0
        self._tokens = 0
        self._calls = 0

    # -- spending -------------------------------------------------------

    def charge(self, usage: LLMUsage) -> None:
        """Add one call's spend; raise if a cap is now strictly exceeded."""
        with self._lock:
            self._cost_usd += usage.cost_usd
            self._tokens += usage.total_tokens
            self._calls += 1
            reading = _MeterReading(
                self._cost_usd, self._tokens,
                self._max_cost_usd, self._max_tokens)
        reading.raise_if("charge", strict=True)

    def charge_totals(self, cost_usd: float, tokens: int,
                      calls: int = 0) -> None:
        """Restore previously persisted spend (no cap check — the spend
        already happened; the next precheck/charge enforces the cap)."""
        with self._lock:
            self._cost_usd += cost_usd
            self._tokens += tokens
            self._calls += calls

    def precheck(self) -> None:
        """Raise when no headroom remains (the pre-turn budget gate)."""
        self._reading().raise_if("precheck", strict=False)

    def exceeded(self) -> bool:
        """Has a cap been strictly breached?  (Cooperative checkpoint.)"""
        return self._reading().over(strict=True)

    def exhausted(self) -> bool:
        """Is the budget fully consumed (spent >= a cap)?"""
        return self._reading().over(strict=False)

    def _reading(self) -> "_MeterReading":
        with self._lock:
            return _MeterReading(
                self._cost_usd, self._tokens,
                self._max_cost_usd, self._max_tokens)

    # -- administration -------------------------------------------------

    def set_limits(self, max_cost_usd: Optional[float] = None,
                   max_tokens: Optional[int] = None) -> None:
        """Replace the caps (admin quota edit); ``None`` removes a cap.

        Raising a cap immediately unblocks a tenant whose turns were
        being rejected by :meth:`precheck`.
        """
        if max_cost_usd is not None and max_cost_usd < 0:
            raise ValueError(
                f"max_cost_usd must be >= 0, got {max_cost_usd}")
        if max_tokens is not None and max_tokens < 0:
            raise ValueError(f"max_tokens must be >= 0, got {max_tokens}")
        with self._lock:
            self._max_cost_usd = max_cost_usd
            self._max_tokens = max_tokens

    @property
    def spent_cost_usd(self) -> float:
        with self._lock:
            return self._cost_usd

    @property
    def spent_tokens(self) -> int:
        with self._lock:
            return self._tokens

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls

    def snapshot(self) -> Dict[str, Any]:
        """One consistent view of spend and caps (admin rollups)."""
        with self._lock:
            reading = _MeterReading(
                self._cost_usd, self._tokens,
                self._max_cost_usd, self._max_tokens)
            calls = self._calls
        remaining_cost = (
            None if reading.max_cost_usd is None
            else max(0.0, reading.max_cost_usd - reading.cost_usd)
        )
        remaining_tokens = (
            None if reading.max_tokens is None
            else max(0, reading.max_tokens - reading.tokens)
        )
        return {
            "spent_cost_usd": round(reading.cost_usd, 6),
            "spent_tokens": reading.tokens,
            "calls": calls,
            "max_cost_usd": reading.max_cost_usd,
            "max_tokens": reading.max_tokens,
            "remaining_cost_usd": (
                None if remaining_cost is None
                else round(remaining_cost, 6)
            ),
            "remaining_tokens": remaining_tokens,
            "exhausted": reading.over(strict=False),
        }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"BudgetMeter(spent=${snap['spent_cost_usd']:.4f}/"
            f"{snap['spent_tokens']}tok, caps=({snap['max_cost_usd']}, "
            f"{snap['max_tokens']}))"
        )


class _Capture:
    """Context manager behind :meth:`UsageLedger.capture`: registers a
    bucket on the calling thread's capture stack for the block."""

    __slots__ = ("_captures", "_bucket")

    def __init__(self, captures: List[List[LLMUsage]]):
        self._captures = captures
        self._bucket: List[LLMUsage] = []

    def __enter__(self) -> List[LLMUsage]:
        self._captures.append(self._bucket)
        return self._bucket

    def __exit__(self, exc_type, exc, tb) -> None:
        # By identity, innermost first: a nested bucket holding the same
        # records compares *equal* to its enclosing one, so ``remove()``
        # would drop the wrong capture.
        captures = self._captures
        for index in range(len(captures) - 1, -1, -1):
            if captures[index] is self._bucket:
                del captures[index]
                break


#: The full value tuple :meth:`UsageLedger._canonical` orders by.
_CANONICAL_KEY = attrgetter(
    "model", "operation", "virtual_timestamp", "input_tokens",
    "output_tokens", "cost_usd", "latency_seconds",
)


class UsageLedger:
    """Collects :class:`LLMUsage` records and aggregates them.

    A ledger is attached to an execution context; operators record into it and
    the final :class:`~repro.execution.stats.ExecutionStats` summarizes it.

    Thread-safety contract: :meth:`record` may be called concurrently from
    real worker threads; the record list is guarded by a lock.  To attribute
    records to the operator call that caused them — which the single-threaded
    executors do by slicing the ledger before/after a call, a technique that
    breaks under interleaving — a thread can wrap a call in :meth:`capture`:
    records produced *by that thread* inside the block are additionally
    appended to the capture list.
    """

    _GUARDED_BY = {"_records": "_lock", "_aggregate_cache": "_lock"}

    def __init__(self, budget: Optional[BudgetMeter] = None):
        self._records: List[LLMUsage] = []
        self._aggregate_cache: Tuple[List[LLMUsage], UsageTotals] = (
            [], UsageTotals())
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Optional shared :class:`BudgetMeter` every record also charges
        #: (after being appended — accounting is never lost to a quota
        #: abort).  Shared across runs/sessions of one tenant.
        self.budget = budget

    def attach_budget(self, budget: Optional[BudgetMeter]) -> None:
        """Attach (or detach, with ``None``) the shared budget meter."""
        self.budget = budget

    def record(self, usage: LLMUsage) -> None:
        with self._lock:
            self._records.append(usage)
        captures = getattr(self._local, "captures", None)
        if captures:
            for bucket in captures:
                bucket.append(usage)
        # Charged last: the record is in the ledger (and any captures)
        # before a cap breach can raise, so a mid-run quota abort leaves
        # a complete partial-usage trail behind.
        if self.budget is not None:
            self.budget.charge(usage)

    def extend(self, usages: Iterable[LLMUsage]) -> None:
        for usage in usages:
            self.record(usage)

    def capture(self) -> "_Capture":
        """Collect the records this thread produces inside the block.

        Captures nest: an inner capture's records also appear in the outer
        one, exactly like the slicing technique they replace.
        """
        captures = getattr(self._local, "captures", None)
        if captures is None:
            captures = self._local.captures = []
        return _Capture(captures)

    @property
    def records(self) -> List[LLMUsage]:
        with self._lock:
            return list(self._records)

    def _aggregated(self) -> Tuple[List[LLMUsage], UsageTotals]:
        """Records in an order that depends only on their multiset, and
        their totals summed in that order.

        Concurrent executors append in thread-arrival order, so float
        aggregation over ``records`` would drift by an ulp run-to-run.
        Sorting by the full value tuple makes every aggregate a pure
        function of *which* calls happened, not when they landed.

        The ledger only grows, so what was computed for ``n`` records
        stands until there are more: a finished run's several aggregates
        (totals twice, per-model rows, the incremental report) share one
        sort and one summing pass.  Callers only read the returned pair.
        """
        with self._lock:
            cached = self._aggregate_cache
            if len(cached[0]) == len(self._records):
                return cached
            records = list(self._records)
        ordered = sorted(records, key=_CANONICAL_KEY)
        totals = UsageTotals()
        for usage in ordered:
            totals.add(usage)
        cached = (ordered, totals)
        with self._lock:
            if len(ordered) == len(self._records):
                self._aggregate_cache = cached
        return cached

    def _canonical(self) -> List[LLMUsage]:
        return self._aggregated()[0]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def total(self) -> UsageTotals:
        return replace(self._aggregated()[1])

    def by_model(self) -> Dict[str, UsageTotals]:
        grouped: Dict[str, UsageTotals] = {}
        for usage in self._canonical():
            grouped.setdefault(usage.model, UsageTotals()).add(usage)
        return grouped

    def by_operation(self) -> Dict[str, UsageTotals]:
        grouped: Dict[str, UsageTotals] = {}
        for usage in self._canonical():
            grouped.setdefault(usage.operation, UsageTotals()).add(usage)
        return grouped

    def filtered(self, operation: Optional[str] = None,
                 model: Optional[str] = None) -> "UsageLedger":
        """A new ledger containing only the matching records."""
        ledger = UsageLedger()
        for usage in self.records:
            if operation is not None and usage.operation != operation:
                continue
            if model is not None and usage.model != model:
                continue
            ledger.record(usage)
        return ledger

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._aggregate_cache = ([], UsageTotals())

    def summary_lines(self) -> List[str]:
        """Human-readable per-model summary (used in chat stats output)."""
        lines = []
        for model, totals in sorted(self.by_model().items()):
            lines.append(
                f"{model}: {totals.calls} calls, "
                f"{totals.input_tokens} in / {totals.output_tokens} out tokens, "
                f"${totals.cost_usd:.4f}"
            )
        return lines
