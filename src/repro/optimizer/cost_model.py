"""Plan cost estimation.

Estimates start from model-card priors (:meth:`PhysicalOperator.naive_estimates`)
threaded through the plan: each operator consumes a :class:`StreamEstimate`
(input cardinality + average document size) and produces the next one.  Plan
quality is the product of the semantic operators' per-record qualities —
errors compound multiplicatively down a pipeline.

Estimation is *incremental*: a :class:`PlanAccumulator` carries the running
totals of a plan prefix, and :meth:`CostModel.extend` adds one operator to
it.  The planner's dynamic program extends shared prefixes once instead of
re-costing every full plan from scratch, and per-operator estimates are
memoized on ``(operator, input stream)`` — the same operator appears in many
enumerated plans at the same stream position.  :meth:`CostModel.estimate_plan`
is the one-shot wrapper over the same arithmetic, so both paths produce
bit-identical estimates.

Sentinel (sample) execution, orchestrated by the optimizer, can replace the
priors with observed numbers via :class:`SampleStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.sources import SourceProfile
from repro.physical.base import PhysicalOperator, StreamEstimate
from repro.physical.options import ExecutionOptions
from repro.physical.plan import PhysicalPlan, shard_safe
from repro.physical.scan import MarshalAndScan

#: Fixed per-shard scale-out overhead: worker/task setup, queue plumbing,
#: and the gather thread's reorder bookkeeping (simulated seconds).
SHARD_SETUP_SECONDS = 0.005

#: Per-record scatter cost: routing each scanned record to its shard and
#: re-sequencing its bundle at the gather (simulated seconds).
SCATTER_SECONDS_PER_RECORD = 0.0002

#: Estimated per-call replay cost for incremental pricing: serving a call
#: from a prior run's call log is a local lookup, comparable to a
#: CallCache hit, not a model round-trip (simulated seconds).
REPLAY_SECONDS_PER_CALL = 0.002


@dataclass(frozen=True)
class IncrementalPricing:
    """Cold vs incremental pricing of a re-run (``price_incremental``).

    ``use_incremental`` is the optimizer's choice: replay the base run's
    call log for unchanged documents, or just run cold.  The chosen
    *plan* is never altered — replay only changes who pays for which
    call — so either mode produces identical records.
    """

    cold_cost_usd: float
    cold_seconds: float
    incremental_cost_usd: float
    incremental_seconds: float
    fresh_fraction: float
    use_incremental: bool

    def to_dict(self) -> Dict[str, float]:
        return {
            "cold_cost_usd": round(self.cold_cost_usd, 6),
            "cold_seconds": round(self.cold_seconds, 3),
            "incremental_cost_usd": round(self.incremental_cost_usd, 6),
            "incremental_seconds": round(self.incremental_seconds, 3),
            "fresh_fraction": round(self.fresh_fraction, 4),
            "use_incremental": self.use_incremental,
        }


@dataclass(frozen=True)
class PlanEstimate:
    """The optimizer's belief about one physical plan."""

    plan: PhysicalPlan
    cost_usd: float
    time_seconds: float
    quality: float
    output_cardinality: float
    from_sample: bool = False

    def describe(self) -> str:
        origin = "sampled" if self.from_sample else "naive"
        return (
            f"{self.plan.describe()} :: cost=${self.cost_usd:.4f}, "
            f"time={self.time_seconds:.1f}s, quality={self.quality:.3f}, "
            f"out~{self.output_cardinality:.1f} ({origin})"
        )


@dataclass
class SampleStats:
    """Observed per-operator statistics from a sentinel run.

    Keyed by ``PhysicalOperator.full_op_id`` in :class:`CostModel`.
    """

    selectivity: Optional[float] = None     # output/input cardinality ratio
    cost_per_record: Optional[float] = None
    time_per_record: Optional[float] = None
    quality: Optional[float] = None


@dataclass(frozen=True)
class PlanAccumulator:
    """Running totals over a plan *prefix* during incremental estimation.

    Produced by :meth:`CostModel.initial_accumulator`, advanced one operator
    at a time by :meth:`CostModel.extend`, and converted into a
    :class:`PlanEstimate` by :meth:`CostModel.finish`.
    """

    cost_usd: float
    time_seconds: float
    quality: float
    stream: StreamEstimate
    from_sample: bool = False
    #: Still inside the maximal shard-safe run after the scan?  Scale-out
    #: executors only data-parallelize that prefix; the flag flips (for
    #: good) at the first non-shard-safe downstream operator.
    in_shardable_prefix: bool = True


class CostModel:
    """Estimates plan cost/time/quality for a given source profile.

    Args:
        source_profile: cardinality + document-size statistics of the scan.
        sample_stats: observed per-operator stats that override priors.
        executor, max_workers, batch_size, shards: the
            :class:`~repro.physical.options.ExecutionOptions` being priced
            (``self.options``).  LLM calls across records run concurrently
            on ``max_workers`` workers, so estimated LLM wall time divides
            by it.  LLM calls issued in batches of ``batch_size`` pay the
            fixed per-call overhead (``ModelCard.overhead_seconds``) once
            per batch instead of once per record, so the amortized share
            ``overhead * (1 - 1/batch_size)`` comes off each LLM record's
            estimated time; cost and quality are unaffected.  For the
            scale-out executors LLM time inside the shardable prefix
            divides by the shard degree instead of ``max_workers``, and
            :meth:`finish` adds the scatter/gather overhead
            (``SHARD_SETUP_SECONDS`` per shard plus
            ``SCATTER_SECONDS_PER_RECORD`` per scanned record).
    """

    def __init__(
        self,
        source_profile: SourceProfile,
        max_workers: int = 1,
        sample_stats: Optional[Dict[str, SampleStats]] = None,
        batch_size: int = 1,
        executor: str = "sequential",
        shards: Optional[int] = None,
    ):
        self.options = ExecutionOptions(
            executor, max_workers, batch_size, shards
        )
        self.source_profile = source_profile
        self.sample_stats = dict(sample_stats or {})
        # (op, input cardinality, avg tokens) -> resolved per-op numbers.
        # Keyed on the operator instance itself: enumeration reuses one
        # instance per candidate across every plan it appears in.
        self._op_memo: Dict[Tuple, Tuple] = {}

    def update(self, full_op_id: str, stats: SampleStats) -> None:
        self.sample_stats[full_op_id] = stats
        self._op_memo.clear()

    # -- incremental estimation ------------------------------------------

    def initial_accumulator(self) -> PlanAccumulator:
        """The empty-prefix accumulator at the source."""
        return PlanAccumulator(
            cost_usd=0.0,
            time_seconds=0.0,
            quality=1.0,
            stream=StreamEstimate(
                cardinality=float(self.source_profile.cardinality),
                avg_document_tokens=self.source_profile.avg_document_tokens,
            ),
        )

    def _resolve_operator(self, op: PhysicalOperator,
                          stream: StreamEstimate) -> Tuple:
        """Per-operator numbers (priors overridden by samples), memoized."""
        key = (op, stream.cardinality, stream.avg_document_tokens)
        resolved = self._op_memo.get(key)
        if resolved is not None:
            return resolved

        estimates = op.naive_estimates(stream)
        observed = (
            self.sample_stats.get(op.full_op_id) if self.sample_stats
            else None
        )
        cost_per_record = estimates.cost_per_record
        time_per_record = estimates.time_per_record
        output_cardinality = estimates.cardinality
        op_quality = estimates.quality
        if observed is not None:
            if observed.cost_per_record is not None:
                cost_per_record = observed.cost_per_record
            if observed.time_per_record is not None:
                time_per_record = observed.time_per_record
            if observed.selectivity is not None:
                output_cardinality = stream.cardinality * observed.selectivity
            if observed.quality is not None:
                op_quality = observed.quality
        resolved = (
            cost_per_record, time_per_record, output_cardinality,
            op_quality, observed is not None,
        )
        self._op_memo[key] = resolved
        return resolved

    def extend(self, acc: PlanAccumulator,
               op: PhysicalOperator) -> PlanAccumulator:
        """The accumulator after appending ``op`` to the prefix."""
        (cost_per_record, time_per_record, output_cardinality,
         op_quality, sampled) = self._resolve_operator(op, acc.stream)

        options = self.options
        input_cardinality = acc.stream.cardinality
        if (
            op.is_llm_op
            and options.batch_size > 1
            and op.model is not None
        ):
            # Batched calls pay the fixed per-call overhead once per batch;
            # the amortized share comes off every record's latency.
            time_per_record = max(
                0.0,
                time_per_record
                - op.model.overhead_seconds * (1.0 - 1.0 / options.batch_size),
            )
        # Track whether ``op`` still sits in the shardable prefix (the scan
        # is prefix-neutral: the prefix is defined over downstream ops).
        in_prefix = acc.in_shardable_prefix
        if (
            in_prefix
            and not isinstance(op, MarshalAndScan)
            and not shard_safe(op)
        ):
            in_prefix = False
        op_time = time_per_record * input_cardinality
        if op.is_llm_op:
            if (
                options.scale_out
                and acc.in_shardable_prefix
                and shard_safe(op)
            ):
                # Scale-out executors scatter prefix LLM calls over shards.
                op_time /= options.degree
            else:
                # Record-parallel LLM calls spread across workers.
                op_time /= options.max_workers
        return PlanAccumulator(
            cost_usd=acc.cost_usd + cost_per_record * input_cardinality,
            time_seconds=acc.time_seconds + op_time,
            quality=acc.quality * max(0.0, min(1.0, op_quality)),
            stream=StreamEstimate(
                cardinality=output_cardinality,
                avg_document_tokens=acc.stream.avg_document_tokens,
            ),
            from_sample=acc.from_sample or sampled,
            in_shardable_prefix=in_prefix,
        )

    def finish(self, plan: PhysicalPlan,
               acc: PlanAccumulator) -> PlanEstimate:
        """Seal a fully-extended accumulator into a :class:`PlanEstimate`."""
        time_seconds = acc.time_seconds
        degree = self.options.degree
        if degree > 1:
            # Scatter/gather isn't free: per-shard setup plus per-record
            # routing.  This is what makes the optimizer prefer degree 1
            # on tiny sources instead of maximal fan-out everywhere.
            time_seconds += (
                SHARD_SETUP_SECONDS * degree
                + SCATTER_SECONDS_PER_RECORD
                * float(self.source_profile.cardinality)
            )
        return PlanEstimate(
            plan=plan,
            cost_usd=acc.cost_usd,
            time_seconds=time_seconds,
            quality=acc.quality,
            output_cardinality=acc.stream.cardinality,
            from_sample=acc.from_sample,
        )

    def estimate_plan(self, plan: PhysicalPlan) -> PlanEstimate:
        acc = self.initial_accumulator()
        for op in plan:
            acc = self.extend(acc, op)
        return self.finish(plan, acc)

    # -- incremental re-run pricing --------------------------------------

    @staticmethod
    def price_incremental(
        estimate: PlanEstimate,
        total_docs: int,
        fresh_docs: int,
        calls_per_doc: float = 1.0,
    ) -> IncrementalPricing:
        """Price replaying a prior run's call log against running cold.

        The incremental run pays the estimated plan cost/time scaled by
        the fresh-document fraction, plus a per-replayed-call lookup
        charge (:data:`REPLAY_SECONDS_PER_CALL`).  The estimate never
        changes the chosen plan — only whether the engine primes a
        :class:`~repro.llm.replay.ReplayLog` from the base run.
        """
        if total_docs <= 0:
            fraction = 1.0
        else:
            fraction = min(1.0, max(0.0, fresh_docs / total_docs))
        replayed_docs = max(0, total_docs - fresh_docs)
        replay_overhead = (
            REPLAY_SECONDS_PER_CALL * replayed_docs * max(0.0, calls_per_doc)
        )
        incremental_cost = estimate.cost_usd * fraction
        incremental_seconds = (
            estimate.time_seconds * fraction + replay_overhead
        )
        return IncrementalPricing(
            cold_cost_usd=estimate.cost_usd,
            cold_seconds=estimate.time_seconds,
            incremental_cost_usd=incremental_cost,
            incremental_seconds=incremental_seconds,
            fresh_fraction=fraction,
            use_incremental=(
                incremental_cost <= estimate.cost_usd
                and incremental_seconds < estimate.time_seconds
            ),
        )
