"""The inline schedules: sequential and (lane-)parallel execution.

Both run :meth:`~repro.execution.pipeline.PlanExecutor._run_inline` — the
core's single-threaded loop, records depth-first through the operator
chain, blocking operators (aggregates, group-by, retrieve) flushed once
the source is drained — and differ only in the lane policy.  The parallel
executor assigns each source record's journey to the least-busy
virtual-clock lane, modelling ``max_workers`` concurrent LLM calls; lanes
synchronize at blocking-operator barriers, exactly like a thread pool with
a stage barrier would.

Early termination: when a ``LimitOp`` with no blocking operator upstream is
exhausted, the executor stops pulling source records — limits genuinely save
LLM calls.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.records import DataRecord
from repro.execution.pipeline import PlanExecutor
from repro.execution.stats import PlanStats
from repro.physical.context import ExecutionContext
from repro.physical.plan import PhysicalPlan


class SequentialExecutor(PlanExecutor):
    """Single-worker depth-first execution (see :class:`PlanExecutor` for
    the ``on_event`` progress hook)."""

    EXECUTOR_NAME = "sequential"
    OPEN_SPAN_REPORTS_OUTPUTS = False

    def __init__(self, context: Optional[ExecutionContext] = None,
                 on_event=None, journeys=None):
        super().__init__(context or ExecutionContext(max_workers=1),
                         on_event=on_event, journeys=journeys)

    def execute(self, plan: PhysicalPlan) -> Tuple[List[DataRecord], PlanStats]:
        return self._run(plan, {"workers": self.context.max_workers})


class ParallelExecutor(SequentialExecutor):
    """Record-parallel execution across ``max_workers`` clock lanes."""

    EXECUTOR_NAME = "parallel"
    LANE_PER_RECORD = True

    def __init__(self, context: Optional[ExecutionContext] = None,
                 max_workers: int = 4, on_event=None, journeys=None):
        if context is None:
            context = ExecutionContext(max_workers=max_workers)
        if context.clock.lanes < context.max_workers:
            raise ValueError(
                "context clock must have at least max_workers lanes"
            )
        super().__init__(context, on_event=on_event, journeys=journeys)
