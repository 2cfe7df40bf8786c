"""E9 (ablation): what the optimizer buys.

Compares the optimizer's budgeted pick against fixed strategies (always the
biggest model, always the smallest model, the median plan of the space), and
naive estimation against sentinel-calibrated estimation.
"""

import pytest

import repro as pz
from repro.corpora.papers import PAPERS_PREDICATE
from repro.evaluation.metrics import extraction_quality
from repro.llm.models import ModelCard, ModelRegistry, default_registry
from repro.optimizer.optimizer import Optimizer


def single_model_registry(name):
    base = default_registry().get(name)
    cards = [base] + default_registry().embedding_models()
    return ModelRegistry(cards)


def execute_and_score(pipeline, source, **kwargs):
    records, stats = pz.Execute(pipeline, **kwargs)
    card = extraction_quality(
        records, list(source), ["name", "description", "url"]
    )
    return {
        "f1": round(card.f1, 3),
        "cost_usd": round(stats.total_cost_usd, 4),
        "plan": stats.plan_stats.plan_describe,
    }


def test_e9_optimizer_vs_fixed_model_choices(
    benchmark, scientific_pipeline, papers_source
):
    def run():
        results = {}
        # The optimizer, under a cost budget that rules out the big model.
        results["optimizer@budget"] = execute_and_score(
            scientific_pipeline, papers_source,
            policy=pz.MaxQualityAtFixedCost(0.08),
        )
        # Fixed strategies: always-biggest and always-smallest registries.
        results["always-gpt-4o"] = execute_and_score(
            scientific_pipeline, papers_source,
            policy=pz.MaxQuality(),
            models=single_model_registry("gpt-4o"),
        )
        results["always-llama-3-8b"] = execute_and_score(
            scientific_pipeline, papers_source,
            policy=pz.MaxQuality(),
            models=single_model_registry("llama-3-8b"),
        )
        return results

    results = benchmark(run)
    benchmark.extra_info["results"] = results

    budgeted = results["optimizer@budget"]
    biggest = results["always-gpt-4o"]
    smallest = results["always-llama-3-8b"]

    # The budgeted optimizer undercuts the big model's cost...
    assert budgeted["cost_usd"] < biggest["cost_usd"]
    # ...while beating the small model's quality.
    assert budgeted["f1"] >= smallest["f1"]
    # And the full-quality plan remains the quality ceiling.
    assert biggest["f1"] >= budgeted["f1"]


def test_e9_sentinel_calibration(benchmark, scientific_pipeline, papers_source):
    """Sample-based estimates replace priors with observed statistics."""

    def run():
        naive = Optimizer(pz.MinCost()).optimize(
            scientific_pipeline.logical_plan(), papers_source
        )
        sampled = Optimizer(pz.MinCost(), sample_size=3).optimize(
            scientific_pipeline.logical_plan(), papers_source
        )
        return naive, sampled

    naive, sampled = benchmark(run)
    benchmark.extra_info.update({
        "naive_estimate": naive.chosen.estimate.describe(),
        "sampled_estimate": sampled.chosen.estimate.describe(),
        "sentinel_cost_usd": round(sampled.sentinel_cost_usd, 4),
    })
    assert not naive.chosen.estimate.from_sample
    assert sampled.chosen.estimate.from_sample
    assert sampled.sentinel_runs > 0
    # Calibration is paid for with a small amount of sampled execution.
    assert 0 < sampled.sentinel_cost_usd < 0.2


def test_e9_plan_space_ablation(benchmark, scientific_pipeline, papers_source):
    """Shrinking the strategy space (no token-reduction, no code-synthesis)
    makes the cheapest available plan more expensive."""

    def run():
        full = Optimizer(pz.MinCost()).optimize(
            scientific_pipeline.logical_plan(), papers_source
        )
        shrunk = Optimizer(
            pz.MinCost(),
            include_token_reduction=False,
            include_code_synthesis=False,
            include_embedding_filter=False,
        ).optimize(scientific_pipeline.logical_plan(), papers_source)
        return full, shrunk

    full, shrunk = benchmark(run)
    benchmark.extra_info.update({
        "full_space": full.plans_considered,
        "shrunk_space": shrunk.plans_considered,
        "full_min_cost": round(full.chosen.estimate.cost_usd, 4),
        "shrunk_min_cost": round(shrunk.chosen.estimate.cost_usd, 4),
    })
    assert shrunk.plans_considered < full.plans_considered
    assert full.chosen.estimate.cost_usd <= shrunk.chosen.estimate.cost_usd


def test_e9_sentinel_measures_quality(benchmark, scientific_pipeline,
                                      papers_source):
    """Sentinel runs score each frontier plan's sample output against the
    oracle-perfect reference, replacing the quality prior with measured F1."""

    def run():
        return Optimizer(pz.MaxQuality(), sample_size=5).optimize(
            scientific_pipeline.logical_plan(), papers_source
        )

    report = benchmark(run)
    sampled = [c for c in report.candidates if c.estimate.from_sample]
    benchmark.extra_info["sampled_plans"] = len(sampled)
    benchmark.extra_info["chosen_quality"] = report.chosen.estimate.quality
    assert sampled
    assert all(0.0 <= c.estimate.quality <= 1.0 for c in sampled)
    # On the curated corpus the chosen plan's measured sample F1 is perfect.
    assert report.chosen.estimate.quality == 1.0
