"""Hash embeddings: geometry and metering."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.llm.clock import VirtualClock
from repro.llm.embeddings import (
    EmbeddingModel,
    cosine_similarity,
    embed_text,
)
from repro.llm.usage import UsageLedger


class TestEmbedText:
    def test_unit_norm(self):
        vector = embed_text("the quick brown fox")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        assert np.linalg.norm(embed_text("")) == 0.0

    def test_deterministic(self):
        a = embed_text("declarative analytics")
        b = embed_text("declarative analytics")
        assert np.allclose(a, b)

    def test_dimension_respected(self):
        assert embed_text("hello world", dim=32).shape == (32,)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            embed_text("x", dim=0)

    def test_shared_vocabulary_is_closer(self):
        cancer1 = embed_text("colorectal cancer tumor mutation study")
        cancer2 = embed_text("a study of colorectal cancer tumors")
        cooking = embed_text("pasta recipe with garlic and olive oil")
        assert cosine_similarity(cancer1, cancer2) > cosine_similarity(
            cancer1, cooking
        )


class TestCosineSimilarity:
    def test_identical_is_one(self):
        v = embed_text("same text here")
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_zero_vector_gives_zero(self):
        v = embed_text("hello world")
        assert cosine_similarity(v, np.zeros_like(v)) == 0.0

    def test_bounded(self):
        a = embed_text("alpha beta gamma")
        b = embed_text("delta epsilon zeta")
        assert -1.0 <= cosine_similarity(a, b) <= 1.0


class TestEmbeddingModel:
    def test_metering(self):
        ledger = UsageLedger()
        clock = VirtualClock()
        model = EmbeddingModel(clock=clock, ledger=ledger)
        model.embed("some document text to embed")
        assert len(ledger) == 1
        assert ledger.total().cost_usd > 0
        assert clock.elapsed > 0

    def test_embed_batch(self):
        ledger = UsageLedger()
        model = EmbeddingModel(ledger=ledger)
        vectors = model.embed_batch(["one", "two", "three"])
        assert len(vectors) == 3
        assert len(ledger) == 3

    def test_similarity_helper(self):
        model = EmbeddingModel()
        sim = model.similarity(
            "colorectal cancer", "a colorectal cancer study"
        )
        assert sim > 0.3

    def test_default_model_is_embedding_card(self):
        model = EmbeddingModel()
        assert model.model.is_embedding_model

    def test_importing_the_package_does_not_load_numpy(self):
        # numpy loads with the first embedding, so a program that never
        # embeds (a plain Execute, a chat server) never pays for it.
        src = Path(__file__).resolve().parents[1] / "src"
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro, repro.server, repro.cli; "
             "print('numpy' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert probe.stdout.strip() == "False"
