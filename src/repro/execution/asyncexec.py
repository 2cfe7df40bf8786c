"""Scale-out execution that models high-fan-out LLM stages on one thread.

:class:`AsyncExecutor` keeps the sharded executor's scatter/gather
skeleton — shardable prefix runs data-parallel, suffix runs post-gather in
global order — but *models* the prefix's ``fanout`` in-flight calls
instead of running them on per-shard worker threads: scanned record
``index`` walks the prefix on virtual lane ``1 + index % fanout``, one
record at a time on the calling thread, so the simulated makespan shows
the same data-parallel speedup as the threaded executor.

Nothing is awaited because there is nothing to wait for: the simulated
client answers from a virtual clock, so a call — clock advance, ledger
entry, trace span — is over when it returns.  Concurrency here is a
property of the lane map, not of the host; an operator error or a quota
breach propagates from the loop as it does from the inline schedule.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.records import DataRecord
from repro.core.sources import SHARD_ROUND_ROBIN
from repro.execution.pipeline import _Meter
from repro.execution.sharded import ShardedExecutor, _ScatterRun
from repro.obs.trace import SpanKind
from repro.physical.context import ExecutionContext
from repro.physical.plan import PhysicalPlan


class AsyncExecutor(ShardedExecutor):
    """Bounded-fanout execution of the shardable prefix on virtual lanes.

    Args:
        context: execution context; created with ``fanout`` lanes when
            omitted.
        fanout: modelled in-flight records (= virtual lanes).  ``None``
            honors the plan's optimizer-stamped ``shards``, falling back
            to 2.
        batch_size: accepted for interface symmetry; this schedule always
            issues per-record calls (its fan-out replaces batching).
        on_event: optional progress callback.
    """

    EXECUTOR_NAME = "async"

    def __init__(self, context: Optional[ExecutionContext] = None,
                 fanout: Optional[int] = None, batch_size: int = 1,
                 on_event=None):
        super().__init__(
            context=context, shards=fanout, strategy=SHARD_ROUND_ROBIN,
            batch_size=batch_size, on_event=on_event,
        )

    def _lane_span(self, k: int, degree: int, prefix_ops: str):
        return self.context.tracer.start_span(
            "async.lane", SpanKind.STAGE, clock=self.context.clock,
            lane=1 + k, fanout=degree, ops=prefix_ops,
        )

    def _scatter_gather(self, plan: PhysicalPlan, scan_meter: _Meter,
                        run: _ScatterRun) -> List[DataRecord]:
        clock = self.context.clock
        bundles: List[List[DataRecord]] = []
        clock.use_lane(0)
        for index, record in enumerate(self._scan(plan, scan_meter)):
            lane = index % run.degree
            clock.use_lane(1 + lane)
            with self.context.tracer.attach(run.lane_spans[lane]):
                outputs = self._bundle(
                    "async.bundle", index, run.prefix, [record], False
                )[0]
                self._charge_fold(run, outputs)
            bundles.append(outputs)
            # The next scan pull must charge lane 0.
            clock.use_lane(0)
            self._emit_progress(scan_meter, len(bundles))
        # Every lane has stopped charging, so lane 1's time is final: close
        # the prefix there, then gather in global order.
        bundles.append(self._close_prefix(run))
        self._gather(run, bundles)
        return self._finish(run)
