"""Shared benchmark fixtures: corpora, pipelines, and result recording.

Every benchmark regenerates one of the paper's evaluation artifacts (see
DESIGN.md's experiment index).  Reproduced quantities — record counts,
simulated runtime/cost, quality scores — are attached to
``benchmark.extra_info`` so they appear in ``--benchmark-json`` output, and
asserted against the *shape* of the paper's numbers.
"""

from __future__ import annotations

import pytest

import repro as pz
from repro.core.sources import DirectorySource
from repro.corpora.legal import generate_legal_corpus
from repro.corpora.papers import generate_paper_corpus
from repro.corpora.realestate import generate_realestate_corpus
from repro.corpora.papers import CLINICAL_FIELDS, PAPERS_PREDICATE


@pytest.fixture(scope="session")
def papers_dir(tmp_path_factory):
    return generate_paper_corpus(tmp_path_factory.mktemp("papers"))


@pytest.fixture(scope="session")
def legal_dir(tmp_path_factory):
    return generate_legal_corpus(tmp_path_factory.mktemp("legal"))


@pytest.fixture(scope="session")
def realestate_dir(tmp_path_factory):
    return generate_realestate_corpus(tmp_path_factory.mktemp("realestate"))


@pytest.fixture()
def papers_source(papers_dir):
    return DirectorySource(papers_dir, dataset_id="sigmod-demo-bench")


@pytest.fixture()
def sigmod_registered(papers_dir):
    from repro.core.sources import register_datasource

    source = DirectorySource(papers_dir, dataset_id="sigmod-demo")
    register_datasource(source, overwrite=True)
    return source


def clinical_schema():
    return pz.make_schema(
        "ClinicalData",
        "A schema for extracting clinical data datasets from papers.",
        CLINICAL_FIELDS,
    )


@pytest.fixture()
def scientific_pipeline(papers_source):
    """The Fig. 6 logical plan over the 11-paper corpus."""
    return (
        pz.Dataset(papers_source)
        .filter(PAPERS_PREDICATE)
        .convert(clinical_schema(), cardinality=pz.Cardinality.ONE_TO_MANY)
    )
