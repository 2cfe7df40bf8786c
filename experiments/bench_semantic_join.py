"""E13 (ablation): semantic joins and embedding blocking.

A semantic join is quadratic in model calls; the embedding-blocked variant
judges only the top-k most similar right records per left record.  This
bench runs both at execution time (not just on estimates) and measures the
call-count and cost reduction, plus the enrichment pattern of
``examples/dataset_catalog_join.py`` end to end.
"""

import pytest

import repro as pz
from repro.core.builtin_schemas import TextFile
from repro.core.sources import MemorySource
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.physical.joins import EmbeddingBlockedJoin, LLMSemanticJoin

N_LEFT = 6
N_RIGHT = 10
PREDICATE = "the report cites the catalog entry"


@pytest.fixture(scope="module")
def join_world():
    """Left reports each citing exactly one of the right catalog entries."""
    lefts, rights = [], []
    for i in range(N_RIGHT):
        rights.append(
            f"Catalog entry {i}: the Registry-{i} collection with "
            f"specimen records series {i}."
        )
    for i in range(N_LEFT):
        lefts.append(
            f"Report {i} analyzes outcomes using the Registry-{i} "
            f"collection series {i} as its data source."
        )
    # Register pair ground truth: report i cites catalog i only.
    for li, left in enumerate(lefts):
        for ri, right in enumerate(rights):
            pair = f"LEFT RECORD:\n{left}\n\nRIGHT RECORD:\n{right}"
            global_oracle().register(
                pair,
                DocumentTruth(
                    predicates={PREDICATE: li == ri}, difficulty=0.0
                ),
            )
    left_source = MemorySource(lefts, dataset_id="join-left-bench",
                               schema=TextFile)
    right_source = MemorySource(rights, dataset_id="join-right-bench",
                                schema=TextFile)
    return left_source, right_source


def run_with(strategy_cls, join_world):
    left_source, right_source = join_world
    joined = pz.Dataset(left_source).join(
        pz.Dataset(right_source), predicate=PREDICATE
    )
    logical = joined.logical_plan().operators[-1]
    from repro.llm.models import default_registry
    from repro.execution.executors import SequentialExecutor
    from repro.physical.plan import PhysicalPlan
    from repro.physical.scan import MarshalAndScan

    model = default_registry().get("gpt-4o")
    if strategy_cls is EmbeddingBlockedJoin:
        op = EmbeddingBlockedJoin(
            logical, model, default_registry().embedding_models()[0]
        )
    else:
        op = LLMSemanticJoin(logical, model)
    plan = PhysicalPlan([
        MarshalAndScan(joined.logical_plan().scan, left_source), op,
    ])
    records, stats = SequentialExecutor().execute(plan)
    return records, stats


def test_e13_blocked_join_saves_calls(benchmark, join_world):
    def run():
        full_records, full_stats = run_with(LLMSemanticJoin, join_world)
        blocked_records, blocked_stats = run_with(
            EmbeddingBlockedJoin, join_world
        )
        return full_records, full_stats, blocked_records, blocked_stats

    full_records, full_stats, blocked_records, blocked_stats = benchmark(run)

    full_join = full_stats.operator_stats[-1]
    blocked_join = blocked_stats.operator_stats[-1]
    benchmark.extra_info.update({
        "full_llm_calls": full_join.llm_calls,
        "blocked_llm_calls": blocked_join.llm_calls,
        "full_cost": round(full_stats.total_cost_usd, 4),
        "blocked_cost": round(blocked_stats.total_cost_usd, 4),
        "full_matches": len(full_records),
        "blocked_matches": len(blocked_records),
    })
    # Full join: every (left, right) pair is judged.
    assert full_join.llm_calls == N_LEFT * N_RIGHT
    # Blocked join: at most BLOCK_SIZE judgments per left record
    # (embedding calls are separate and near-free).
    assert blocked_join.llm_calls < full_join.llm_calls
    assert blocked_stats.total_cost_usd < full_stats.total_cost_usd
    # Both recover every true pair: shared vocabulary puts the true match
    # inside the similarity block.
    assert len(full_records) == N_LEFT
    assert len(blocked_records) == N_LEFT
