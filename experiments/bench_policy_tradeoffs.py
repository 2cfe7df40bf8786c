"""E2 (§2.1): the policy trade-off table.

The optimizer claim: the same logical plan, executed under different
user preferences, yields different physical plans with the promised
trade-offs — MinCost is dramatically cheaper than MaxQuality, MinTime is
dramatically faster, and MaxQuality's output quality dominates both.
"""

import pytest

import repro as pz
from repro.corpora.papers import PAPERS_PREDICATE
from repro.evaluation.metrics import extraction_quality


def run_policy(pipeline, policy, source):
    records, stats = pz.Execute(pipeline, policy=policy)
    card = extraction_quality(
        records, list(source), ["name", "description", "url"]
    )
    return {
        "policy": policy.describe(),
        "records": len(records),
        "cost_usd": round(stats.total_cost_usd, 4),
        "time_s": round(stats.total_time_seconds, 1),
        "f1": round(card.f1, 3),
        "plan": stats.plan_stats.plan_describe,
    }


def test_e2_policy_tradeoff_table(
    benchmark, scientific_pipeline, papers_source
):
    policies = [pz.MaxQuality(), pz.MinCost(), pz.MinTime()]

    def run():
        return {
            policy.name: run_policy(scientific_pipeline, policy, papers_source)
            for policy in policies
        }

    rows = benchmark(run)
    benchmark.extra_info["table"] = rows

    quality_row = rows["max-quality"]
    cost_row = rows["min-cost"]
    time_row = rows["min-time"]

    # Who wins each column, and by roughly what factor.
    assert cost_row["cost_usd"] < quality_row["cost_usd"] / 10
    assert time_row["time_s"] < quality_row["time_s"] / 5
    assert quality_row["f1"] >= cost_row["f1"]
    assert quality_row["f1"] >= time_row["f1"]
    assert quality_row["f1"] == 1.0
    # The three policies actually choose different physical plans.
    assert len({row["plan"] for row in rows.values()}) >= 2


def test_e2_constrained_policies(benchmark, scientific_pipeline, papers_source):
    """'maximize the output quality while being under a certain latency'."""

    def run():
        unconstrained = run_policy(
            scientific_pipeline, pz.MaxQuality(), papers_source
        )
        budgeted = run_policy(
            scientific_pipeline,
            pz.MaxQualityAtFixedCost(0.05),
            papers_source,
        )
        timed = run_policy(
            scientific_pipeline,
            pz.MaxQualityAtFixedTime(60.0),
            papers_source,
        )
        return unconstrained, budgeted, timed

    unconstrained, budgeted, timed = benchmark(run)
    benchmark.extra_info.update({
        "unconstrained": unconstrained,
        "cost_budget_0.05": budgeted,
        "time_budget_60s": timed,
    })
    # The constraints bind: budget plans respect their caps (with estimate
    # slack) and trade away some quality.
    assert budgeted["cost_usd"] < unconstrained["cost_usd"]
    assert timed["time_s"] < unconstrained["time_s"]
    assert budgeted["f1"] <= unconstrained["f1"]


@pytest.fixture(scope="module")
def hard_papers(tmp_path_factory):
    """A harder corpus (difficulty 0.6) where cheap plans visibly lose."""
    from repro.corpora.papers import generate_paper_corpus

    directory = tmp_path_factory.mktemp("hard-papers")
    return generate_paper_corpus(
        directory, n_papers=20, n_relevant=14, n_with_datasets=10,
        difficulty=0.6, seed=5,
    )


def test_e2_quality_gap_on_hard_corpus(benchmark, hard_papers):
    """On ambiguous documents the MaxQuality plan's F1 clearly dominates
    the cheap plans — the trade-off the easy demo corpus masks."""
    from repro.core.sources import DirectorySource

    source = DirectorySource(hard_papers, dataset_id="hard-papers")

    def build():
        Clinical = pz.make_schema(
            "ClinicalDataHard", "Datasets from papers.",
            {"name": "The dataset name",
             "description": "A short description",
             "url": "The public URL"},
        )
        return (
            pz.Dataset(source)
            .filter(PAPERS_PREDICATE)
            .convert(Clinical, cardinality=pz.Cardinality.ONE_TO_MANY)
        )

    def run():
        return {
            policy.name: run_policy(build(), policy, source)
            for policy in (pz.MaxQuality(), pz.MinCost())
        }

    rows = benchmark(run)
    benchmark.extra_info["hard_corpus_table"] = rows
    assert rows["max-quality"]["f1"] >= rows["min-cost"]["f1"] + 0.1
    assert rows["min-cost"]["cost_usd"] < rows["max-quality"]["cost_usd"] / 20
