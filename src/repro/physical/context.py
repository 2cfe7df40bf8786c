"""Execution context: the shared services physical operators run against."""

from __future__ import annotations

from typing import Optional

from repro.llm.cache import CallCache
from repro.llm.clock import VirtualClock
from repro.llm.models import ModelRegistry, default_registry
from repro.llm.oracle import GroundTruthRegistry, global_oracle
from repro.llm.usage import BudgetMeter, QuotaExceededError, UsageLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import NULL_PROVENANCE
from repro.obs.trace import NULL_TRACER


class ExecutionContext:
    """Bundles the clock, ledger, oracle, and model registry for one run.

    Every execution (including optimizer sentinel runs) gets its own context
    so that sampling costs are accounted separately from the main run.
    """

    def __init__(
        self,
        max_workers: int = 1,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[UsageLedger] = None,
        oracle: Optional[GroundTruthRegistry] = None,
        models: Optional[ModelRegistry] = None,
        cache: Optional[CallCache] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        provenance=None,
        replay=None,
        budget: Optional[BudgetMeter] = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.clock = clock or VirtualClock(lanes=max_workers)
        self.ledger = ledger or UsageLedger()
        #: Shared spend cap (e.g. a tenant's quota).  Every call the
        #: run's ledger records is charged against it, and executors
        #: poll :meth:`checkpoint` between operators so a budget another
        #: session exhausted aborts this run cooperatively.
        self.budget = budget
        if budget is not None and self.ledger.budget is None:
            self.ledger.attach_budget(budget)
        self.oracle = oracle if oracle is not None else global_oracle()
        self.models = models or default_registry()
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.provenance = (
            provenance if provenance is not None else NULL_PROVENANCE
        )
        #: Optional :class:`repro.llm.replay.ReplayLog`; when set, LLM
        #: clients capture fresh calls into it and serve replay hits from
        #: it (incremental execution).  Sentinel contexts never inherit it.
        self.replay = replay

    def checkpoint(self) -> None:
        """Cooperative quota-abort point (executors call this between
        operators).  Raises :class:`~repro.llm.usage.QuotaExceededError`
        when the shared budget has been strictly breached — typically by
        a concurrent session of the same tenant; this run's own breaching
        call raises directly from the ledger charge.  Free when no budget
        is attached.
        """
        budget = self.budget
        if budget is not None and budget.exceeded():
            raise QuotaExceededError(
                "quota exhausted (checkpoint): the shared budget was "
                "breached; aborting between operators",
                spent_cost_usd=budget.spent_cost_usd,
                spent_tokens=budget.spent_tokens,
            )

    def __repr__(self) -> str:
        return (
            f"ExecutionContext(max_workers={self.max_workers}, "
            f"elapsed={self.clock.elapsed:.2f}s, "
            f"llm_calls={len(self.ledger)})"
        )
