"""Scale-out execution that models high-fan-out LLM stages.

:class:`AsyncExecutor` is the sharded executor's scatter/gather loop —
shardable prefix on per-shard lanes, suffix post-gather in global order —
with one-record bundles and round-robin routing: scanned record ``index``
walks the prefix on virtual lane ``1 + index % fanout``, modelling
``fanout`` in-flight calls, so the simulated makespan shows the same
data-parallel speedup as the sharded executor at the same degree.

Nothing is awaited because there is nothing to wait for: the simulated
client answers from a virtual clock, so a call — clock advance, ledger
entry, trace span — is over when it returns.  Concurrency here is a
property of the lane map, not of the host.
"""

from __future__ import annotations

from typing import List, Optional

from repro.execution.pipeline import _Meter
from repro.execution.sharded import ShardedExecutor, _ScatterRun
from repro.obs.trace import SpanKind
from repro.physical.context import ExecutionContext


class AsyncExecutor(ShardedExecutor):
    """Bounded-fanout execution of the shardable prefix on virtual lanes.

    Args:
        context: execution context; created with ``fanout`` lanes when
            omitted.
        fanout: modelled in-flight records (= virtual lanes).  ``None``
            honors the plan's optimizer-stamped ``shards``, falling back
            to 2.
        batch_size: accepted for interface symmetry and reported in the
            run's span and stats; this schedule always issues per-record
            calls (its fan-out replaces batching).
        on_event: optional progress callback.
    """

    EXECUTOR_NAME = "async"
    BUNDLE_SPAN = "async.bundle"
    REPORTS_SHARD_COUNTS = False

    def __init__(self, context: Optional[ExecutionContext] = None,
                 fanout: Optional[int] = None, batch_size: int = 1,
                 on_event=None):
        super().__init__(
            context=context, shards=fanout, batch_size=batch_size,
            on_event=on_event,
        )

    def _begin(self, downstream: List[_Meter], degree: int,
               batch_size: int) -> _ScatterRun:
        return super()._begin(downstream, degree, 1)

    def _lane_span(self, k: int, degree: int, prefix_ops: str):
        return self.context.tracer.start_span(
            "async.lane", SpanKind.STAGE, clock=self.context.clock,
            lane=1 + k, fanout=degree, ops=prefix_ops,
        )
