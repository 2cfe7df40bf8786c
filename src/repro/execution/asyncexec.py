"""Asyncio-based scale-out execution for high-fan-out LLM stages.

:class:`AsyncExecutor` keeps the sharded executor's scatter/gather
skeleton — shardable prefix runs data-parallel, suffix runs post-gather in
global order — but drives the prefix with asyncio tasks awaiting the
client's coroutine API
(:meth:`SimulatedLLMClient.ajudge` / ``aextract`` / ``acomplete``), gathered
with bounded concurrency (a semaphore of ``fanout`` permits), instead of
per-shard worker *threads*.  Each scanned record becomes one task charging
virtual lane ``1 + index % fanout``, so the simulated makespan shows the
same data-parallel speedup as the threaded executor.

Determinism and accounting rest on one invariant: **no coroutine in the
simulated stack ever suspends**.  The client answers from a virtual clock,
so an ``await`` of ``ajudge`` runs the whole call — clock advance, ledger
entry, trace span — atomically on the event-loop thread.  Task bodies
therefore execute as indivisible units in task-creation (arrival) order,
which makes the core meter's thread-local lane/capture attribution exact,
with no context-variable migration.  A client that really awaited the
network would need context-local attribution and a merge discipline for
interleaved captures.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.core.records import DataRecord
from repro.core.sources import SHARD_ROUND_ROBIN
from repro.execution.pipeline import _Meter, _PinnedSpan
from repro.execution.sharded import ShardedExecutor, _ScatterRun
from repro.obs.trace import SpanKind
from repro.physical.context import ExecutionContext
from repro.physical.plan import PhysicalPlan


class AsyncExecutor(ShardedExecutor):
    """Bounded-concurrency asyncio execution of the shardable prefix.

    Args:
        context: execution context; created with ``fanout`` lanes when
            omitted.
        fanout: maximum in-flight records (and virtual lanes).  ``None``
            honors the plan's optimizer-stamped ``shards``, falling back
            to 2.
        batch_size: accepted for interface symmetry; the async path always
            issues per-record calls (its concurrency replaces batching).
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
        loop = asyncio.new_event_loop()
        try:
            return loop.run_until_complete(
                self._drive(plan, scan_meter, run)
            )
        finally:
            loop.close()

    async def _drive(self, plan: PhysicalPlan, scan_meter: _Meter,
                     run: _ScatterRun) -> List[DataRecord]:
        clock = self.context.clock
        semaphore = asyncio.Semaphore(run.degree)
        results: Dict[int, List[DataRecord]] = {}
        tasks: List["asyncio.Task"] = []
        clock.use_lane(0)
        try:
            for record in self._scan(plan, scan_meter):
                if self._abort.is_set():
                    break
                # Blocks once ``fanout`` tasks are in flight; the loop then
                # runs pending tasks (in creation order, each atomic) until
                # a permit frees up.
                await semaphore.acquire()
                tasks.append(asyncio.ensure_future(self._one_record(
                    run, len(tasks), record, results, semaphore,
                )))
                # Tasks that ran during the acquire switched the loop
                # thread's lane; the next scan pull must charge lane 0.
                clock.use_lane(0)
                self._emit_progress(scan_meter, len(results))
        except BaseException as exc:  # noqa: BLE001 - reported below
            self._fail(exc)
        if tasks:
            await asyncio.gather(*tasks)
        if self._errors:
            raise self._errors[0]

        # All tasks are done, so lane 1's time is final: close the prefix
        # there, then gather in global order.
        results[len(tasks)] = self._close_prefix(run)
        self._gather(
            run, (results.get(seq, []) for seq in range(len(tasks) + 1))
        )
        return self._finish(run)

    async def _one_record(self, run: _ScatterRun, index: int,
                          record: DataRecord,
                          results: Dict[int, List[DataRecord]],
                          semaphore: "asyncio.Semaphore") -> None:
        lane = index % run.degree
        try:
            self.context.clock.use_lane(1 + lane)
            with self.context.tracer.attach(run.lane_spans[lane]):
                with _PinnedSpan(self.context, "async.bundle",
                                 SpanKind.BUNDLE, seq=index, records=1):
                    outputs = await self._arun_chain(run.prefix, record)
                self._charge_fold(run, outputs)
            results[index] = outputs
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            self._fail(exc)
            results[index] = []
        finally:
            semaphore.release()
