"""Shared fixtures: generated corpora and registered demo datasets.

Tier-1 is a pure function of the tree: every hypothesis test draws the
same examples on every run (``derandomize``) and replays nothing from a
``.hypothesis/`` directory (``database=None``).  Each test keeps its own
``max_examples``.  ``--hypothesis-profile default`` restores fresh draws
(and ``--hypothesis-seed``, which ``derandomize`` overrides).
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.corpora.legal import generate_legal_corpus
from repro.corpora.papers import generate_paper_corpus
from repro.corpora.realestate import generate_realestate_corpus
from repro.core.sources import DirectorySource, register_datasource

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def papers_dir(tmp_path_factory):
    """The default 11-paper scientific-discovery corpus."""
    directory = tmp_path_factory.mktemp("papers")
    return generate_paper_corpus(directory)


@pytest.fixture(scope="session")
def legal_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("legal")
    return generate_legal_corpus(directory)


@pytest.fixture(scope="session")
def realestate_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("realestate")
    return generate_realestate_corpus(directory)


@pytest.fixture()
def papers_source(papers_dir):
    return DirectorySource(papers_dir, dataset_id="papers-test")


@pytest.fixture()
def sigmod_demo(papers_dir):
    """Register the papers corpus under the paper's dataset id."""
    source = DirectorySource(papers_dir, dataset_id="sigmod-demo")
    register_datasource(source, overwrite=True)
    return source
