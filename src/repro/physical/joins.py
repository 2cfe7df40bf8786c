"""Physical join implementations.

All joins materialize the right-hand :class:`~repro.core.dataset.Dataset`
when the operator opens: the right sub-pipeline is optimized (MaxQuality,
naive estimates) and executed against the *same* execution context, so its
LLM calls, cost, and simulated time are accounted to the join operator.

Three implementations span the usual trade-off spectrum:

* :class:`NestedLoopUDFJoin` — a Python pair predicate; free.
* :class:`LLMSemanticJoin` — one model call per (left, right) pair; the
  most faithful and the most expensive (quadratic calls).
* :class:`EmbeddingBlockedJoin` — block with embedding similarity first and
  only ask the model about the top-``block_size`` most similar right
  records per left record; cheaper, slightly lossier.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.logical_ext import JoinScan
from repro.core.records import DataRecord
from repro.llm import quality as quality_model
from repro.llm.client import BooleanRequest, SimulatedLLMClient
from repro.llm.embeddings import EmbeddingModel, cosine_similarity
from repro.llm.models import ModelCard
from repro.obs.provenance import DropReason
from repro.physical.base import (
    OperatorCostEstimates,
    PhysicalOperator,
    StreamEstimate,
)
from repro.physical.context import ExecutionContext

#: Default selectivity of a join predicate over random pairs.
DEFAULT_JOIN_SELECTIVITY = 0.1


def _materialize_right(join, context: ExecutionContext):
    """Optimize + execute the right dataset inside ``context``.

    Provenance is suspended for the nested run: its operators and
    records belong to the join's internal sub-pipeline, not the outer
    plan's graph — the finished right records enter the graph as
    ``join.right`` / ``union.right`` roots instead.
    """
    from repro.execution.executors import SequentialExecutor
    from repro.optimizer.optimizer import Optimizer

    with context.provenance.suspended():
        report = Optimizer(models=context.models).optimize(
            join.right_dataset.logical_plan(), join.right_dataset.source
        )
        executor = SequentialExecutor(context)
        records, _ = executor.execute(report.chosen.plan)
    return records


def _merge(join: JoinScan, left: DataRecord,
           right: DataRecord) -> DataRecord:
    values = {}
    left_fields = set(left.schema.field_map())
    for name in right.schema.field_map():
        target = name if name not in left_fields else f"right_{name}"
        values[target] = right.get(name)
    return left.derive(join.output_schema, values, extra_parents=(right,))


class _JoinBase(PhysicalOperator):
    def __init__(self, logical_op: JoinScan,
                 model: Optional[ModelCard] = None):
        super().__init__(logical_op, model=model)
        self.join: JoinScan = logical_op
        self._right: List[DataRecord] = []
        self._matched_right_ids: set = set()

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._right = _materialize_right(self.join, context)
        self._matched_right_ids = set()
        if context.provenance.enabled:
            for right in self._right:
                context.provenance.source(right, origin="join.right")

    def _note_match(self, left: DataRecord, right: DataRecord,
                    merged: DataRecord, llm=None, **attrs) -> None:
        prov = self.provenance
        if prov.enabled:
            prov.emit(self, [left, right], [merged], llm=llm, **attrs)
            self._matched_right_ids.add(right.record_id)

    def _note_left_unmatched(self, left: DataRecord, judged: int,
                             llm=None, **attrs) -> None:
        prov = self.provenance
        if prov.enabled:
            prov.drop(self, left, DropReason.JOIN_NO_MATCH, llm=llm,
                      pairs_judged=judged, **attrs)

    def close(self) -> List[DataRecord]:
        prov = self.provenance
        if prov.enabled:
            for right in self._right:
                if right.record_id not in self._matched_right_ids:
                    prov.drop(self, right, DropReason.JOIN_NO_MATCH,
                              side="right")
        return []

    def _right_profile_cardinality(self) -> float:
        try:
            return float(len(self.join.right_dataset.source))
        except TypeError:  # pragma: no cover - unsized custom sources
            return 10.0


class NestedLoopUDFJoin(_JoinBase):
    """Pair UDF evaluated over the cross product."""

    strategy = "NestedLoopUDFJoin"

    def __init__(self, logical_op: JoinScan):
        if logical_op.udf is None:
            raise ValueError("NestedLoopUDFJoin requires a UDF join")
        super().__init__(logical_op)

    def process(self, record: DataRecord) -> List[DataRecord]:
        out = []
        for right in self._right:
            self._charge_local_time(0.0001)
            if self.join.udf(record, right):
                merged = _merge(self.join, record, right)
                self._note_match(record, right, merged, verdict=True)
                out.append(merged)
        if not out:
            self._note_left_unmatched(record, judged=len(self._right))
        return out

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        right_n = self._right_profile_cardinality()
        return OperatorCostEstimates(
            cardinality=stream.cardinality * right_n * DEFAULT_JOIN_SELECTIVITY,
            time_per_record=0.0001 * right_n,
            cost_per_record=0.0,
            quality=1.0,
        )


class LLMSemanticJoin(_JoinBase):
    """Ask the model to judge the predicate for every pair."""

    strategy = "LLMSemanticJoin"

    def __init__(self, logical_op: JoinScan, model: ModelCard):
        if logical_op.predicate is None:
            raise ValueError("LLMSemanticJoin requires an NL predicate")
        super().__init__(logical_op, model=model)
        self._client: Optional[SimulatedLLMClient] = None

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._client = SimulatedLLMClient(
            self.model,
            clock=context.clock,
            ledger=context.ledger,
            oracle=context.oracle,
            registry=context.models,
            cache=context.cache,
            tracer=context.tracer,
            replay=context.replay,
        )

    def _pair_matches(self, left: DataRecord, right: DataRecord):
        """Judge one pair; returns the full response (``.value`` is the
        verdict, ``.usage`` the call's accounting for provenance)."""
        document = (
            f"LEFT RECORD:\n{left.document_text()}\n\n"
            f"RIGHT RECORD:\n{right.document_text()}"
        )
        return self._client.judge(
            BooleanRequest(
                predicate=self.join.predicate,
                document=document,
                operation=f"join:{self.join.predicate[:40]}",
            )
        )

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._client is not None, "operator not opened"
        out = []
        unmatched_usages = []
        for right in self._right:
            response = self._pair_matches(record, right)
            if response.value:
                merged = _merge(self.join, record, right)
                self._note_match(record, right, merged,
                                 llm=[response.usage], verdict=True)
                out.append(merged)
            else:
                unmatched_usages.append(response.usage)
        if not out:
            self._note_left_unmatched(record, judged=len(self._right),
                                      llm=unmatched_usages, verdict=False)
        return out

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        right_n = self._right_profile_cardinality()
        pair_tokens = int(stream.avg_document_tokens * 2) + 80
        per_pair_cost = self.model.cost_usd(pair_tokens, 1)
        per_pair_time = self.model.latency_seconds(pair_tokens, 1)
        error = quality_model.error_probability(self.model, 0.35, 1.0)
        return OperatorCostEstimates(
            cardinality=stream.cardinality * right_n * DEFAULT_JOIN_SELECTIVITY,
            time_per_record=per_pair_time * right_n,
            cost_per_record=per_pair_cost * right_n,
            quality=1.0 - error,
        )


class EmbeddingBlockedJoin(LLMSemanticJoin):
    """Embedding blocking, then model judgments on the top-k block."""

    strategy = "EmbeddingBlockedJoin"
    BLOCK_SIZE = 3
    BLOCKING_RECALL = 0.9  # estimated share of true pairs inside the block

    def __init__(self, logical_op: JoinScan, model: ModelCard,
                 embedding_model: ModelCard):
        super().__init__(logical_op, model)
        self.embedding_model = embedding_model
        self._embedder: Optional[EmbeddingModel] = None
        self._right_vectors = []

    @property
    def op_label(self) -> str:
        return f"{self.strategy}[{self.model.name}]"

    def open(self, context: ExecutionContext) -> None:
        super().open(context)
        self._embedder = EmbeddingModel(
            model=self.embedding_model,
            clock=context.clock,
            ledger=context.ledger,
            cache=context.cache,
        )
        self._right_vectors = [
            self._embedder.embed(r.document_text(), operation="join-embed")
            for r in self._right
        ]

    def process(self, record: DataRecord) -> List[DataRecord]:
        assert self._client and self._embedder, "operator not opened"
        left_vector = self._embedder.embed(
            record.document_text(), operation="join-embed"
        )
        scored = sorted(
            (
                (cosine_similarity(left_vector, vector), index)
                for index, vector in enumerate(self._right_vectors)
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )
        out = []
        unmatched_usages = []
        # The block is judged in right arrival order, so a left record's
        # matches come out in the order every other join gives them.
        for similarity, index in sorted(scored[: self.BLOCK_SIZE],
                                        key=lambda pair: pair[1]):
            right = self._right[index]
            response = self._pair_matches(record, right)
            if response.value:
                merged = _merge(self.join, record, right)
                self._note_match(record, right, merged,
                                 llm=[response.usage], verdict=True,
                                 similarity=round(similarity, 9))
                out.append(merged)
            else:
                unmatched_usages.append(response.usage)
        if not out:
            self._note_left_unmatched(
                record, judged=min(len(scored), self.BLOCK_SIZE),
                llm=unmatched_usages, verdict=False,
                block_size=self.BLOCK_SIZE)
        return out

    def naive_estimates(self, stream: StreamEstimate) -> OperatorCostEstimates:
        right_n = self._right_profile_cardinality()
        judged = min(right_n, float(self.BLOCK_SIZE))
        pair_tokens = int(stream.avg_document_tokens * 2) + 80
        embed_cost = self.embedding_model.cost_usd(
            int(stream.avg_document_tokens), 0
        )
        per_record_cost = (
            judged * self.model.cost_usd(pair_tokens, 1) + embed_cost
        )
        per_record_time = (
            judged * self.model.latency_seconds(pair_tokens, 1)
            + self.embedding_model.latency_seconds(
                int(stream.avg_document_tokens), 0
            )
        )
        error = quality_model.error_probability(self.model, 0.35, 1.0)
        return OperatorCostEstimates(
            cardinality=(
                stream.cardinality * right_n * DEFAULT_JOIN_SELECTIVITY
                * self.BLOCKING_RECALL
            ),
            time_per_record=per_record_time,
            cost_per_record=per_record_cost,
            quality=(1.0 - error) * self.BLOCKING_RECALL,
        )
