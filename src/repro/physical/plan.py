"""Physical plans: an executable chain of physical operators."""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.core.errors import PlanError
from repro.physical.base import PhysicalOperator
from repro.physical.scan import MarshalAndScan


def shard_safe(op: PhysicalOperator) -> bool:
    """Can ``op`` process records shard-parallel with identical results?

    True for stateless record-local streaming operators: LLM-bound filters,
    converts, and semantic joins (answers are pure functions of
    ``(model, document, task)``), plus projections.  Order-sensitive
    streaming operators (limits, distinct, code-synthesis converts — the
    first records seen become exemplars) and blocking operators must run
    post-gather in global arrival order.

    Shared by the sharded/async executors and the cost model so the priced
    shardable prefix is exactly the executed one.
    """
    from repro.physical.converts import CodeSynthesisConvert
    from repro.physical.structural import ProjectOp

    if isinstance(op, ProjectOp):
        return True
    return (
        op.is_llm_op
        and not op.is_blocking
        and not isinstance(op, CodeSynthesisConvert)
    )


def record_local(op: PhysicalOperator) -> bool:
    """Is ``op``'s work on one record a pure function of that record?

    True for the stateless streaming operators that read nothing but the
    record in hand (and its lineage): filters, converts other than the
    exemplar-keeping code-synthesis one, projections.  Their outputs,
    clock charges, LLM calls and provenance event for a document are then
    the same in every run of the same operator, which is what lets an
    incremental re-run splice them from the base run
    (:mod:`repro.execution.incremental`).  Joins and unions read a second
    dataset, limits and distinct keep arrival state, blocking operators
    see everything: none of those qualify.
    """
    from repro.physical.converts import (
        ChunkedConvert, LLMConvertBonded, NonLLMConvert,
    )
    from repro.physical.filters import (
        EmbeddingFilter, LLMFilter, NonLLMFilter,
    )
    from repro.physical.structural import ProjectOp

    return isinstance(op, (
        NonLLMFilter, LLMFilter, EmbeddingFilter, NonLLMConvert,
        LLMConvertBonded, ChunkedConvert, ProjectOp,
    ))


class PhysicalPlan:
    """A linear chain of physical operators, scan first.

    ``batch_size`` is a physical dimension of the plan: LLM-bound stages
    may process records in batches of this size, amortizing the fixed
    per-call overhead (prompt-prefix construction, connection setup) across
    the batch.  It changes *when* simulated time is charged, never which
    records are produced, so two plans differing only in batch size share
    a ``plan_id``.

    ``shards`` is the data-parallelism degree the optimizer chose for the
    sharded/async executors: the source is partitioned into this many
    deterministic shards and the shardable operator prefix runs once per
    shard.  Like batch size, it never changes which records are produced,
    so it is excluded from ``plan_id`` too.
    """

    def __init__(self, operators: List[PhysicalOperator],
                 batch_size: int = 1, shards: int = 1):
        if not operators:
            raise PlanError("a physical plan needs at least one operator")
        if not isinstance(operators[0], MarshalAndScan):
            raise PlanError("a physical plan must start with MarshalAndScan")
        if batch_size < 1:
            raise PlanError(f"batch_size must be >= 1, got {batch_size}")
        if shards < 1:
            raise PlanError(f"shards must be >= 1, got {shards}")
        self.operators = list(operators)
        self.batch_size = batch_size
        self.shards = shards

    @property
    def scan(self) -> MarshalAndScan:
        return self.operators[0]  # type: ignore[return-value]

    @property
    def downstream(self) -> List[PhysicalOperator]:
        return self.operators[1:]

    @property
    def plan_id(self) -> str:
        material = "|".join(op.full_op_id for op in self.operators)
        return hashlib.sha256(material.encode("utf-8")).hexdigest()[:12]

    def with_batch_size(self, batch_size: int) -> "PhysicalPlan":
        """A copy of this plan whose LLM stages run in ``batch_size`` batches."""
        return PhysicalPlan(self.operators, batch_size=batch_size,
                            shards=self.shards)

    def with_shards(self, shards: int) -> "PhysicalPlan":
        """A copy of this plan scattered across ``shards`` source shards."""
        return PhysicalPlan(self.operators, batch_size=self.batch_size,
                            shards=shards)

    @property
    def streaming_prefix(self) -> List[PhysicalOperator]:
        """The maximal run of :func:`record_local` operators after the
        scan: what a document journey covers."""
        prefix: List[PhysicalOperator] = []
        for op in self.downstream:
            if not record_local(op):
                break
            prefix.append(op)
        return prefix

    def models_used(self) -> List[str]:
        return sorted(
            {op.model.name for op in self.operators if op.model is not None}
        )

    def describe(self) -> str:
        return " -> ".join(op.op_label for op in self.operators)

    def explain(self) -> str:
        """A multi-line EXPLAIN-style rendering."""
        lines = [f"PhysicalPlan {self.plan_id}:"]
        for depth, op in enumerate(self.operators):
            indent = "  " * depth
            lines.append(f"{indent}{op.op_label}  <- {op.logical_op.describe()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def __repr__(self) -> str:
        return f"PhysicalPlan({self.describe()})"
