"""E7: the legal-discovery scenario end-to-end.

Responsive-document review (semantic filter) plus deal-term extraction,
reported with the same records/runtime/cost statistics as E1 — and the
quality gap between model tiers, which is wider here because legal prose is
registered with a higher difficulty than the papers corpus.
"""

import pytest

import repro as pz
from repro.core.sources import DirectorySource
from repro.corpora.legal import CONTRACT_FIELDS, LEGAL_PREDICATE
from repro.evaluation.metrics import filter_quality


@pytest.fixture()
def source(legal_dir):
    return DirectorySource(legal_dir, dataset_id="legal-bench")


def build_pipeline(source):
    Contract = pz.make_schema(
        "Contract", "Deal terms from responsive documents.", CONTRACT_FIELDS
    )
    return pz.Dataset(source).filter(LEGAL_PREDICATE).convert(Contract)


def test_e7_legal_discovery_end_to_end(benchmark, source):
    pipeline = build_pipeline(source)

    def run():
        return pz.Execute(pipeline, policy=pz.MaxQuality())

    records, stats = benchmark(run)
    benchmark.extra_info.update({
        "records": len(records),
        "cost_usd": round(stats.total_cost_usd, 4),
        "time_s": round(stats.total_time_seconds, 1),
        "plan": stats.plan_stats.plan_describe,
    })
    # 6 responsive documents; allow the error process a little slack.
    assert 4 <= len(records) <= 8
    buyers = {r.buyer for r in records if r.buyer}
    assert "Harbor Holdings LLC" in buyers
    deal_values = [r.deal_value for r in records if r.deal_value]
    assert any("million" in str(v) for v in deal_values)


def test_e7_model_tier_gap_on_hard_documents(benchmark, source):
    """Cheap plans visibly lose quality on the high-difficulty corpus."""

    def run():
        scores = {}
        for policy in (pz.MaxQuality(), pz.MinCost()):
            pipeline = pz.Dataset(source).filter(LEGAL_PREDICATE)
            records, stats = pz.Execute(pipeline, policy=policy)
            card = filter_quality(records, list(source), LEGAL_PREDICATE)
            scores[policy.name] = {
                "f1": round(card.f1, 3),
                "cost_usd": round(stats.total_cost_usd, 4),
            }
        return scores

    scores = benchmark(run)
    benchmark.extra_info["scores"] = scores
    assert scores["max-quality"]["f1"] >= scores["min-cost"]["f1"]
    assert scores["min-cost"]["cost_usd"] < scores["max-quality"]["cost_usd"]
