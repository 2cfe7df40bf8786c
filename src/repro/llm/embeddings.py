"""Deterministic text embeddings.

A feature-hashing bag-of-words embedding: each content word hashes to a
coordinate and a sign, the document vector is the normalized sum.  It is not
a neural embedding, but it has the property the system actually needs —
documents that share vocabulary land close together — so semantic top-k
retrieval and the cheap embedding-based filter variant behave sensibly.
"""

from __future__ import annotations

import hashlib
import re
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.llm.clock import VirtualClock
from repro.llm.models import ModelCard, default_registry
from repro.llm.tokenizer import count_tokens
from repro.llm.usage import LLMUsage, UsageLedger

if TYPE_CHECKING:  # numpy loads on the first embedding, not on import
    import numpy as np

DEFAULT_DIM = 1024

_WORD_RE = re.compile(r"[a-z0-9][a-z0-9\-]+")


def _hash_word(word: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(word.encode("utf-8"), digest_size=8).digest(), "big"
    )


def embed_text(text: str, dim: int = DEFAULT_DIM) -> np.ndarray:
    """Embed ``text`` into a unit vector of dimension ``dim``."""
    import numpy as np

    if dim <= 0:
        raise ValueError(f"embedding dimension must be positive, got {dim}")
    vector = np.zeros(dim, dtype=np.float64)
    for word in _WORD_RE.findall(text.lower()):
        h = _hash_word(word)
        index = h % dim
        sign = 1.0 if (h >> 63) & 1 else -1.0
        vector[index] += sign
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return vector


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two vectors (0.0 if either is zero)."""
    import numpy as np

    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


class EmbeddingModel:
    """Metered wrapper around :func:`embed_text`.

    Charges the embedding model card's per-token price and advances the
    virtual clock, so retrieval operators participate in cost accounting.
    With a :class:`~repro.llm.cache.CallCache` attached, repeated
    embeddings of the same text are free (vector stores are cheap to keep).
    """

    def __init__(
        self,
        model: Optional[ModelCard] = None,
        dim: int = DEFAULT_DIM,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[UsageLedger] = None,
        cache=None,
    ):
        if model is None:
            candidates = default_registry().embedding_models()
            if not candidates:
                raise ValueError("no embedding model registered")
            model = candidates[0]
        self.model = model
        self.dim = dim
        self.clock = clock
        self.ledger = ledger
        self.cache = cache

    def _meter(self, tokens: int, cost: float, latency: float,
               operation: str) -> None:
        timestamp = self.clock.advance(latency) if self.clock else 0.0
        if self.ledger is not None:
            self.ledger.record(
                LLMUsage(
                    model=self.model.name,
                    input_tokens=tokens,
                    output_tokens=0,
                    cost_usd=cost,
                    latency_seconds=latency,
                    operation=operation,
                    virtual_timestamp=timestamp,
                )
            )

    def embed(self, text: str, operation: str = "embed") -> np.ndarray:
        cache_key = None
        if self.cache is not None:
            from repro.llm.cache import CallCache
            from repro.llm.oracle import fingerprint_text

            cache_key = CallCache.make_key(
                self.model.name, "embed", str(self.dim),
                fingerprint_text(text),
            )
            hit, vector = self.cache.lookup(cache_key)
            if hit:
                from repro.llm.cache import CallCache as _CC

                self._meter(0, 0.0, _CC.HIT_LATENCY_SECONDS,
                            f"{operation}:cached")
                return vector
        tokens = count_tokens(text)
        self._meter(
            tokens,
            self.model.cost_usd(tokens, 0),
            self.model.latency_seconds(tokens, 0),
            operation,
        )
        vector = embed_text(text, self.dim)
        if cache_key is not None:
            self.cache.store(cache_key, vector)
        return vector

    def embed_batch(self, texts: Sequence[str],
                    operation: str = "embed") -> List[np.ndarray]:
        return [self.embed(t, operation=operation) for t in texts]

    def similarity(self, query: str, document: str) -> float:
        return cosine_similarity(self.embed(query), self.embed(document))
