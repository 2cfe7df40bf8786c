"""E3 (§2.1): "a search space of all possible physical plans".

Measures plan-space size as a function of pipeline length and model
registry size, and that the optimizer ranks and picks from that space.
"""

import pytest

import repro as pz
from repro.core.sources import MemorySource
from repro.core.builtin_schemas import TextFile
from repro.llm.models import ModelCard, ModelRegistry, default_registry
from repro.optimizer.cost_model import CostModel
from repro.optimizer.planner import enumerate_plans, plan_space_size


def build_pipeline(source, n_semantic_ops):
    dataset = pz.Dataset(source)
    for index in range(n_semantic_ops):
        if index % 2 == 0:
            dataset = dataset.filter(f"condition number {index}")
        else:
            schema = pz.make_schema(
                f"Step{index}", "step", {f"value{index}": "the value"}
            )
            dataset = dataset.convert(schema)
    return dataset


@pytest.fixture()
def source():
    return MemorySource(
        [f"document {i} with some text" for i in range(10)],
        dataset_id="enum-bench",
        schema=TextFile,
    )


def test_e3_plan_space_grows_with_pipeline_length(benchmark, source):
    def run():
        sizes = {}
        for n_ops in (1, 2, 3):
            pipeline = build_pipeline(source, n_ops)
            sizes[n_ops] = plan_space_size(
                pipeline.logical_plan(), default_registry(), source
            )
        return sizes

    sizes = benchmark(run)
    benchmark.extra_info["plan_space_sizes"] = sizes
    n_chat = len(default_registry().chat_models())
    n_embed = len(default_registry().embedding_models())
    assert sizes[1] == n_chat + n_embed            # one filter
    assert sizes[2] == sizes[1] * 4 * n_chat       # + one convert
    assert sizes[3] == sizes[2] * (n_chat + n_embed)
    assert sizes[3] > 500  # a real search space, as the paper claims


def test_e3_plan_space_grows_with_model_registry(benchmark, source):
    def registry_of(n):
        cards = [
            ModelCard(
                name=f"model-{i}", provider="bench",
                usd_per_1m_input=0.1 * (i + 1),
                usd_per_1m_output=0.4 * (i + 1),
                quality=0.5 + 0.04 * i,
            )
            for i in range(n)
        ]
        return ModelRegistry(cards)

    def run():
        pipeline = build_pipeline(source, 2)
        return {
            n: plan_space_size(
                pipeline.logical_plan(), registry_of(n), source,
                include_embedding_filter=False,
            )
            for n in (2, 4, 8)
        }

    sizes = benchmark(run)
    benchmark.extra_info["sizes_by_models"] = sizes
    # filter: n models; convert: 4 strategies x n models -> 4 n^2 total.
    assert sizes[2] == 2 * 4 * 2
    assert sizes[4] == 4 * 4 * 4
    assert sizes[8] == 8 * 4 * 8


def test_e3_enumeration_and_ranking(benchmark, source):
    pipeline = build_pipeline(source, 2)

    def run():
        cost_model = CostModel(source.profile())
        return enumerate_plans(
            pipeline.logical_plan(), source, default_registry(), cost_model
        )

    candidates = benchmark(run)
    benchmark.extra_info["plans_enumerated"] = len(candidates)
    # All estimates are finite and orderable; the policy can rank them.
    best = pz.MaxQuality().choose([c.estimate for c in candidates])
    assert best.quality == max(c.estimate.quality for c in candidates)
    cheapest = pz.MinCost().choose([c.estimate for c in candidates])
    assert cheapest.cost_usd == min(c.estimate.cost_usd for c in candidates)
