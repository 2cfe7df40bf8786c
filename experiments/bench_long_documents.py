"""E12 (ablation): documents that exceed the context window.

When the average document is bigger than a model's window, the planner
replaces the single-call convert strategies with the chunked map-reduce
strategy for that model (and truncates filter contexts), keeping small
models usable on long documents at a quality discount.
"""

import pytest

import repro as pz
from repro.core.builtin_schemas import TextFile
from repro.core.sources import MemorySource
from repro.llm.models import ModelCard, ModelRegistry, default_registry

Info = pz.make_schema(
    "Info", "Key facts.",
    {"url": "The URL mentioned", "email": "The contact e-mail"},
)


def long_documents(n=6):
    docs = []
    for i in range(n):
        docs.append(
            f"Report {i}. " + "filler prose segment " * 150
            + f" The data portal is https://portal{i}.example.org. "
            + "more filler content " * 150
            + f" Contact owner{i}@example.org with questions. "
            + "trailing notes " * 80
        )
    return MemorySource(docs, dataset_id="long-docs", schema=TextFile)


def small_window_registry(window=400):
    small = ModelCard(
        name="small-window-model", provider="bench",
        usd_per_1m_input=0.2, usd_per_1m_output=0.4,
        quality=1.0, context_window=window,
    )
    return ModelRegistry([small] + default_registry().embedding_models())


def test_e12_chunked_convert_recovers_scattered_facts(benchmark):
    source = long_documents()
    registry = small_window_registry()

    def run():
        dataset = pz.Dataset(source).convert(Info)
        return pz.Execute(
            dataset, policy=pz.MaxQuality(), models=registry
        )

    records, stats = benchmark(run)
    benchmark.extra_info.update({
        "plan": stats.plan_stats.plan_describe,
        "records": len(records),
        "llm_calls": stats.plan_stats.operator_stats[-1].llm_calls,
    })
    assert "ChunkedConvert" in stats.plan_stats.plan_describe
    assert len(records) == 6
    # Facts live in different chunks of each document; both recovered.
    assert all(r.url and r.url.startswith("http") for r in records)
    assert all(r.email and "@" in r.email for r in records)
    # More than one model call per record (multiple chunks).
    assert stats.plan_stats.operator_stats[-1].llm_calls > len(records)


def test_e12_big_window_models_skip_chunking(benchmark):
    source = long_documents()

    def run():
        dataset = pz.Dataset(source).convert(Info)
        return pz.Execute(dataset, policy=pz.MaxQuality())

    records, stats = benchmark(run)
    benchmark.extra_info["plan"] = stats.plan_stats.plan_describe
    assert "ChunkedConvert" not in stats.plan_stats.plan_describe
    assert len(records) == 6
