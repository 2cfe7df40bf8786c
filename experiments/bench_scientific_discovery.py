"""E1 (Fig. 5 / §3): the scientific-discovery execution statistics.

Paper: "out of an input dataset of 11 papers, the pipeline managed to
extract 6 publicly available datasets related to colorectal cancers,
together with the associated URLs. ... the workload was executed in about
240s and with a cost of about 0.35 USD" under MaxQuality.
"""

import pytest

import repro as pz
from repro.evaluation.metrics import extraction_quality

PAPER_RECORDS = 6
PAPER_RUNTIME_SECONDS = 240.0
PAPER_COST_USD = 0.35


def test_e1_scientific_discovery_fig5(
    benchmark, scientific_pipeline, papers_source
):
    def run():
        return pz.Execute(scientific_pipeline, policy=pz.MaxQuality())

    records, stats = benchmark(run)

    # --- the Fig. 5 payload -------------------------------------------
    benchmark.extra_info.update({
        "paper_records": PAPER_RECORDS,
        "measured_records": len(records),
        "paper_runtime_s": PAPER_RUNTIME_SECONDS,
        "measured_runtime_s": round(stats.total_time_seconds, 1),
        "paper_cost_usd": PAPER_COST_USD,
        "measured_cost_usd": round(stats.total_cost_usd, 4),
        "plan": stats.plan_stats.plan_describe,
        "plans_considered": stats.plans_considered,
    })

    # Exact reproduction of the headline count.
    assert len(records) == PAPER_RECORDS
    # Every extracted dataset carries a valid URL (the authors "manually
    # verified the validity of these URLs").
    assert all(r.url and r.url.startswith("http") for r in records)
    # Extraction is perfect against ground truth under MaxQuality.
    card = extraction_quality(
        records, list(papers_source), ["name", "description", "url"]
    )
    assert card.f1 == 1.0
    # Runtime and cost land within 2x of the paper's measurements.
    assert PAPER_RUNTIME_SECONDS / 2 <= stats.total_time_seconds \
        <= PAPER_RUNTIME_SECONDS * 2
    assert PAPER_COST_USD / 2 <= stats.total_cost_usd <= PAPER_COST_USD * 2


def test_e1_per_operator_breakdown(benchmark, scientific_pipeline):
    """Fig. 5's per-operator view: filter feeds 8 papers to the convert."""

    def run():
        return pz.Execute(scientific_pipeline, policy=pz.MaxQuality())

    _, stats = benchmark(run)
    by_label = {
        op.op_label.split("[")[0]: op
        for op in stats.plan_stats.operator_stats
    }
    scan = by_label["MarshalAndScan"]
    assert scan.records_in == scan.records_out == 11
    filter_stats = next(
        op for op in stats.plan_stats.operator_stats if "Filter" in op.op_label
    )
    assert filter_stats.records_in == 11
    assert filter_stats.records_out == 8
    convert_stats = next(
        op for op in stats.plan_stats.operator_stats
        if "Convert" in op.op_label
    )
    assert convert_stats.records_in == 8
    assert convert_stats.records_out == 6
    benchmark.extra_info["operators"] = [
        op.to_dict() for op in stats.plan_stats.operator_stats
    ]
