"""How a plan is to be run: the one value every layer agrees on.

``ExecutionOptions`` is the frozen ``(executor, max_workers, batch_size,
shards)`` quartet that :class:`~repro.execution.execute.ExecutionEngine`,
the optimizer, the cost model, the chat workspace and the CLI all consume.
It owns the executor-name tuple, the scale-out set, and every validation
rule about the four — so a rule changes here or nowhere.

It lives in the physical layer because both the optimizer (which prices
and stamps plans for an executor) and the execution package (which runs
them) depend on it, and those two import each other's neighbours.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: Every executor name, in the order the docs and CLI list them.
EXECUTORS = ("sequential", "parallel", "pipelined", "sharded", "async")
#: Executors that scatter the shardable prefix over source shards.
SCALE_OUT_EXECUTORS = ("sharded", "async")
#: Executors that can issue batched LLM calls (the others call per record).
BATCHING_EXECUTORS = ("pipelined",) + SCALE_OUT_EXECUTORS


@dataclass(frozen=True)
class ExecutionOptions:
    """Which schedule runs the plan, and how wide.

    Args:
        executor: one of :data:`EXECUTORS` — "sequential", "parallel"
            (record-level parallelism on virtual-clock lanes), "pipelined"
            (operator stages, each on its own lanes), "sharded"
            (scatter/gather over deterministic source shards), or "async"
            (the same scatter/gather with one-record bundles).  Every
            schedule runs on the calling thread.  ``None``
            infers it: parallel when ``max_workers > 1``, sequential
            otherwise.
        max_workers: record-level parallelism for LLM operators.
        batch_size: LLM-stage batch size for the batching executors
            (pipelined/sharded/async); the cost model amortizes per-call
            overhead accordingly.  The others call per record.
        shards: parallelism degree for the scale-out executors.  ``None``
            lets the optimizer enumerate degrees and *choose* one with the
            cost model; an integer pins it.  Only valid with a scale-out
            executor.
    """

    executor: Optional[str] = None
    max_workers: int = 1
    batch_size: int = 1
    shards: Optional[int] = None

    def __post_init__(self):
        if self.executor is not None and self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {', '.join(EXECUTORS)}"
            )
        if self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.shards is not None:
            if self.shards < 1:
                raise ValueError(f"shards must be >= 1, got {self.shards}")
            if not self.scale_out:
                raise ValueError(
                    "shards only applies to the "
                    f"{' / '.join(SCALE_OUT_EXECUTORS)} executors; "
                    f"got executor={self.executor!r}"
                )

    @classmethod
    def normalized(cls, executor: Optional[str] = None, max_workers: int = 1,
                   batch_size: int = 1,
                   shards: Optional[int] = None) -> "ExecutionOptions":
        """Like the constructor, but a ``shards`` value that came along
        with a non-scale-out executor is dropped instead of rejected —
        for surfaces that carry all four settings at once (CLI flags with
        defaults, a restored chat workspace)."""
        if executor not in SCALE_OUT_EXECUTORS:
            shards = None
        return cls(executor, max_workers, batch_size, shards)

    @property
    def name(self) -> str:
        """The executor name that will actually run."""
        if self.executor is not None:
            return self.executor
        return "parallel" if self.max_workers > 1 else "sequential"

    @property
    def scale_out(self) -> bool:
        return self.executor in SCALE_OUT_EXECUTORS

    @property
    def degree(self) -> int:
        """The shard degree to price or run with (1 when unpinned)."""
        return self.shards if self.shards is not None else 1

    def resolved(self) -> "ExecutionOptions":
        """With the executor name inferred and the batch size reduced to
        what that executor can honor — what the optimizer prices and the
        stats report."""
        name = self.name
        return dataclasses.replace(
            self, executor=name,
            batch_size=self.batch_size if name in BATCHING_EXECUTORS else 1,
        )

    def kwargs(self) -> Dict[str, Any]:
        """The four values as keyword arguments, for the constructors and
        ``Execute`` — which keep explicit keyword signatures."""
        return dataclasses.asdict(self)
