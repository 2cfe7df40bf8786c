"""Usage records and the usage ledger.

Every simulated LLM call produces an :class:`LLMUsage` record; a
:class:`UsageLedger` aggregates them per model and per logical operation so
execution statistics (Fig. 5 of the paper) can report exact token counts,
dollar costs, and call counts.
"""

from __future__ import annotations

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


class BudgetMeter:
    """Cumulative spend tracker with optional hard caps.

    A meter outlives any single run: a tenant's meter is shared by every
    session and every pipeline execution of that tenant, so quotas apply
    to the *sum* of their spend.  Per-run :class:`UsageLedger` objects
    stay fresh (stats remain per-run); they :meth:`charge` the shared
    meter as records land.  Under ``repro serve`` every charge happens
    with the serving lock held.

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

    def __init__(self, max_cost_usd: Optional[float] = None,
                 max_tokens: Optional[int] = None):
        self.spent_cost_usd = 0.0
        self.spent_tokens = 0
        self.calls = 0
        self.set_limits(max_cost_usd, max_tokens)

    # -- spending -------------------------------------------------------

    def charge(self, usage: LLMUsage) -> None:
        """Add one call's spend; raise if a cap is now strictly exceeded."""
        self.spent_cost_usd += usage.cost_usd
        self.spent_tokens += usage.total_tokens
        self.calls += 1
        self._raise_if("charge", strict=True)

    def charge_totals(self, cost_usd: float, tokens: int,
                      calls: int = 0) -> None:
        """Restore previously persisted spend (no cap check — the spend
        already happened; the next precheck/charge enforces the cap)."""
        self.spent_cost_usd += cost_usd
        self.spent_tokens += tokens
        self.calls += calls

    def precheck(self) -> None:
        """Raise when no headroom remains (the pre-turn budget gate)."""
        self._raise_if("precheck", strict=False)

    def exceeded(self) -> bool:
        """Has a cap been strictly breached?  (Cooperative checkpoint.)"""
        return self._over(strict=True)

    def exhausted(self) -> bool:
        """Is the budget fully consumed (spent >= a cap)?"""
        return self._over(strict=False)

    def _over(self, strict: bool) -> bool:
        for spent, cap in ((self.spent_cost_usd, self.max_cost_usd),
                           (self.spent_tokens, self.max_tokens)):
            if cap is not None and (spent > cap if strict else spent >= cap):
                return True
        return False

    def _raise_if(self, stage: str, strict: bool) -> None:
        if not self._over(strict):
            return
        raise QuotaExceededError(
            f"quota exhausted ({stage}): spent ${self.spent_cost_usd:.6f} / "
            f"{self.spent_tokens} tokens against caps "
            f"max_cost_usd={self.max_cost_usd}, "
            f"max_tokens={self.max_tokens}",
            spent_cost_usd=self.spent_cost_usd,
            spent_tokens=self.spent_tokens,
            max_cost_usd=self.max_cost_usd,
            max_tokens=self.max_tokens,
        )

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
        self.max_cost_usd = max_cost_usd
        self.max_tokens = max_tokens

    def snapshot(self) -> Dict[str, Any]:
        """Spend and caps as one JSON-able row (admin rollups)."""
        remaining_cost = (
            None if self.max_cost_usd is None
            else max(0.0, self.max_cost_usd - self.spent_cost_usd)
        )
        remaining_tokens = (
            None if self.max_tokens is None
            else max(0, self.max_tokens - self.spent_tokens)
        )
        return {
            "spent_cost_usd": round(self.spent_cost_usd, 6),
            "spent_tokens": self.spent_tokens,
            "calls": self.calls,
            "max_cost_usd": self.max_cost_usd,
            "max_tokens": self.max_tokens,
            "remaining_cost_usd": (
                None if remaining_cost is None
                else round(remaining_cost, 6)
            ),
            "remaining_tokens": remaining_tokens,
            "exhausted": self._over(strict=False),
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
    bucket on the ledger's capture stack for the block."""

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


#: The full value tuple :meth:`UsageLedger._canonical` orders by.  The
#: lane timestamp comes last: a schedule decides it, so keying on it any
#: earlier would let the schedule reorder (and re-round) the sums.
_CANONICAL_KEY = attrgetter(
    "model", "operation", "input_tokens", "output_tokens", "cost_usd",
    "latency_seconds", "virtual_timestamp",
)


class UsageLedger:
    """Collects :class:`LLMUsage` records and aggregates them.

    A ledger is attached to an execution context (or a chat session) and
    belongs to it: operators record into it on the run's thread and the
    final :class:`~repro.execution.stats.ExecutionStats` summarizes it.  To
    attribute records to the operator call that caused them, a caller can
    wrap the call in :meth:`capture`: records produced inside the block are
    additionally appended to the capture list.
    """

    def __init__(self, budget: Optional[BudgetMeter] = None):
        self._records: List[LLMUsage] = []
        self._aggregate_cache: Tuple[List[LLMUsage], UsageTotals] = (
            [], UsageTotals())
        #: The open :meth:`capture` buckets, outermost first.
        self._captures: List[List[LLMUsage]] = []
        #: Optional shared :class:`BudgetMeter` every record also charges
        #: (after being appended — accounting is never lost to a quota
        #: abort).  Shared across runs/sessions of one tenant.
        self.budget = budget

    def attach_budget(self, budget: Optional[BudgetMeter]) -> None:
        """Attach (or detach, with ``None``) the shared budget meter."""
        self.budget = budget

    def record(self, usage: LLMUsage) -> None:
        self._records.append(usage)
        for bucket in self._captures:
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
        """Collect the records produced inside the block.

        Captures nest: an inner capture's records also appear in the outer
        one, exactly like slicing the ledger before and after the block.
        """
        return _Capture(self._captures)

    @property
    def records(self) -> List[LLMUsage]:
        return list(self._records)

    def _aggregated(self) -> Tuple[List[LLMUsage], UsageTotals]:
        """Records in an order that depends only on their multiset, and
        their totals summed in that order.

        Schedules append in lane-arrival order, which differs between
        executors, so float aggregation over ``records`` would drift by an
        ulp from one schedule to another.  Sorting by the full value tuple
        makes every aggregate a pure function of *which* calls happened,
        not when they landed.

        The ledger only grows, so what was computed for ``n`` records
        stands until there are more: a finished run's several aggregates
        (totals twice, per-model rows, the incremental report) share one
        sort and one summing pass.  Callers only read the returned pair.
        """
        cached = self._aggregate_cache
        if len(cached[0]) == len(self._records):
            return cached
        ordered = sorted(self._records, key=_CANONICAL_KEY)
        totals = UsageTotals()
        for usage in ordered:
            totals.add(usage)
        cached = self._aggregate_cache = (ordered, totals)
        return cached

    def _canonical(self) -> List[LLMUsage]:
        return self._aggregated()[0]

    def __len__(self) -> int:
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
