"""E10 (ablation): scaling with corpus size and execution parallelism.

The demo motivates Palimpzest with "large collections of unstructured
data"; this benchmark verifies that simulated cost scales linearly with
corpus size and that the parallel executor delivers near-linear speedup on
LLM-bound pipelines.
"""

import pytest

import repro as pz
from repro.core.sources import DirectorySource
from repro.corpora.papers import (
    CLINICAL_FIELDS,
    PAPERS_PREDICATE,
    generate_paper_corpus,
)

SIZES = (10, 40, 120)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    directories = {}
    for size in SIZES:
        directory = tmp_path_factory.mktemp(f"scale-{size}")
        generate_paper_corpus(
            directory,
            n_papers=size,
            n_relevant=int(size * 0.7),
            n_with_datasets=int(size * 0.5),
        )
        directories[size] = directory
    return directories


def pipeline_for(directory, size):
    source = DirectorySource(directory, dataset_id=f"scale-{size}")
    Clinical = pz.make_schema(
        f"Clinical{size}", "Clinical datasets.", CLINICAL_FIELDS
    )
    return (
        pz.Dataset(source)
        .filter(PAPERS_PREDICATE)
        .convert(Clinical, cardinality=pz.Cardinality.ONE_TO_MANY)
    )


def test_e10_cost_scales_linearly_with_corpus(benchmark, corpora):
    def run():
        measurements = {}
        for size, directory in corpora.items():
            _, stats = pz.Execute(
                pipeline_for(directory, size), policy=pz.MaxQuality()
            )
            measurements[size] = {
                "cost_usd": stats.total_cost_usd,
                "time_s": stats.total_time_seconds,
            }
        return measurements

    measurements = benchmark(run)
    benchmark.extra_info["measurements"] = {
        str(k): {m: round(v, 3) for m, v in row.items()}
        for k, row in measurements.items()
    }
    small = measurements[SIZES[0]]["cost_usd"] / SIZES[0]
    large = measurements[SIZES[-1]]["cost_usd"] / SIZES[-1]
    # Per-record cost is flat (within 30%) across a 12x corpus growth.
    assert large == pytest.approx(small, rel=0.3)


def test_e10_parallel_speedup(benchmark, corpora):
    directory = corpora[SIZES[1]]

    def run():
        results = {}
        for workers in (1, 4, 8):
            _, stats = pz.Execute(
                pipeline_for(directory, SIZES[1]),
                policy=pz.MaxQuality(),
                max_workers=workers,
            )
            results[workers] = stats.total_time_seconds
        return results

    results = benchmark(run)
    benchmark.extra_info["runtime_by_workers"] = {
        str(k): round(v, 1) for k, v in results.items()
    }
    speedup_4 = results[1] / results[4]
    speedup_8 = results[1] / results[8]
    assert speedup_4 > 2.5
    assert speedup_8 > speedup_4
    # Cost is work, not wall-clock: identical across worker counts —
    # asserted implicitly by linear-cost test above; here check ordering.
    assert results[8] < results[4] < results[1]
