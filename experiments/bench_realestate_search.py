"""E8: the real-estate-search scenario end-to-end.

Semantic filtering of free-text listings, structured extraction, and
conventional aggregation (average price, per-city group-by) over the
extracted attributes — the "mix LLMs and traditional data processing"
vision of §4.
"""

import pytest

import repro as pz
from repro.core.sources import DirectorySource
from repro.corpora.realestate import LISTING_FIELDS, REALESTATE_PREDICATE


@pytest.fixture()
def source(realestate_dir):
    return DirectorySource(realestate_dir, dataset_id="realestate-bench")


def listing_schema(name="Listing"):
    return pz.make_schema(name, "A structured listing.", LISTING_FIELDS)


def test_e8_waterfront_search_with_aggregation(benchmark, source):
    def run():
        pipeline = (
            pz.Dataset(source)
            .filter(REALESTATE_PREDICATE)
            .convert(listing_schema())
            .average("price")
        )
        return pz.Execute(pipeline, policy=pz.MaxQuality())

    records, stats = benchmark(run)
    average_price = records[0].average_price
    benchmark.extra_info.update({
        "average_waterfront_price": average_price,
        "cost_usd": round(stats.total_cost_usd, 4),
        "time_s": round(stats.total_time_seconds, 1),
    })
    assert len(records) == 1
    # Waterfront carries a +$250k premium in the corpus.
    assert average_price > 500_000


def test_e8_groupby_city(benchmark, source):
    def run():
        pipeline = (
            pz.Dataset(source)
            .convert(listing_schema("Listing2"))
            .groupby(["city"], [("count", None), ("avg", "price")])
        )
        return pz.Execute(pipeline, policy=pz.MaxQuality())

    records, _ = benchmark(run)
    table = {r.city: (r.count, r.average_price) for r in records}
    benchmark.extra_info["by_city"] = {
        city: {"count": count, "avg_price": avg}
        for city, (count, avg) in table.items()
    }
    assert len(table) == 4  # the corpus covers four cities
    assert sum(count for count, _ in table.values()) == 24


def test_e8_semantic_retrieve(benchmark, source):
    def run():
        pipeline = pz.Dataset(source).retrieve(
            "waterfront home with a private dock", k=5
        )
        return pz.Execute(pipeline)

    records, stats = benchmark(run)
    benchmark.extra_info["retrieved"] = [r.filename for r in records]
    assert len(records) == 5
    # Top-k retrieval surfaces mostly waterfront listings.
    from repro.llm.oracle import global_oracle

    hits = sum(
        1 for r in records
        if global_oracle().predicate_truth(
            r.document_text(), REALESTATE_PREDICATE
        )
    )
    assert hits >= 3
