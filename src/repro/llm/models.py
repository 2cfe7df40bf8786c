"""Model cards and the model registry.

Each simulated model is described by a :class:`ModelCard` whose prices and
speeds are calibrated to public mid-2024 price sheets, and whose ``quality``
tier drives the seeded error process in :mod:`repro.llm.quality`.  The
registry is what gives the Palimpzest optimizer a physical plan space: every
semantic logical operator (filter / convert) has one physical implementation
per *capable* registered model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class ModelCard:
    """Static description of a simulated LLM.

    Attributes:
        name: Unique model identifier, e.g. ``"gpt-4o"``.
        provider: Vendor label, for display only.
        usd_per_1m_input: Price in USD per million prompt tokens.
        usd_per_1m_output: Price in USD per million completion tokens.
        prefill_tokens_per_second: How fast the model ingests prompt tokens.
        decode_tokens_per_second: How fast the model emits completion tokens.
        overhead_seconds: Fixed per-call overhead (network + queueing).
        quality: Quality tier in ``[0, 1]``; drives the error process.
        context_window: Maximum prompt tokens accepted in one call.
        supports_reasoning: Whether the model is capable enough to drive the
            ReAct chat agent (only top-tier models are).
        is_embedding_model: Embedding models are priced per input token only
            and are not eligible for filter/convert physical operators.
    """

    name: str
    provider: str
    usd_per_1m_input: float
    usd_per_1m_output: float
    prefill_tokens_per_second: float = 2500.0
    decode_tokens_per_second: float = 40.0
    overhead_seconds: float = 0.8
    quality: float = 0.8
    context_window: int = 128_000
    supports_reasoning: bool = False
    is_embedding_model: bool = False
    tags: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.name:
            raise ValueError("model name must be non-empty")
        if not 0.0 <= self.quality <= 1.0:
            raise ValueError(f"quality must be in [0, 1], got {self.quality}")
        if self.usd_per_1m_input < 0 or self.usd_per_1m_output < 0:
            raise ValueError("model prices must be non-negative")
        if self.prefill_tokens_per_second <= 0 or self.decode_tokens_per_second <= 0:
            raise ValueError("token rates must be positive")
        if self.context_window <= 0:
            raise ValueError("context window must be positive")

    def cost_usd(self, input_tokens: int, output_tokens: int) -> float:
        """Dollar cost of one call with the given token counts."""
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be non-negative")
        return (
            input_tokens * self.usd_per_1m_input
            + output_tokens * self.usd_per_1m_output
        ) / 1_000_000.0

    def latency_seconds(self, input_tokens: int, output_tokens: int) -> float:
        """Simulated latency of one call with the given token counts."""
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be non-negative")
        return (
            self.overhead_seconds
            + input_tokens / self.prefill_tokens_per_second
            + output_tokens / self.decode_tokens_per_second
        )

    def with_quality(self, quality: float) -> "ModelCard":
        """Return a copy of this card with a different quality tier."""
        return replace(self, quality=quality)


# ---------------------------------------------------------------------------
# Default model catalogue.
#
# Prices/speeds are calibrated to published mid-2024 price sheets; they are
# inputs to the simulation, not claims about current vendor pricing.  Quality
# tiers are ordered the way public leaderboards ordered these models.
# ---------------------------------------------------------------------------

DEFAULT_MODEL_CARDS: List[ModelCard] = [
    ModelCard(
        name="gpt-4o",
        provider="openai",
        usd_per_1m_input=2.50,
        usd_per_1m_output=10.00,
        prefill_tokens_per_second=2200.0,
        decode_tokens_per_second=55.0,
        overhead_seconds=3.0,
        quality=0.96,
        supports_reasoning=True,
        tags=("frontier",),
    ),
    ModelCard(
        name="gpt-4o-mini",
        provider="openai",
        usd_per_1m_input=0.15,
        usd_per_1m_output=0.60,
        prefill_tokens_per_second=3800.0,
        decode_tokens_per_second=85.0,
        overhead_seconds=0.6,
        quality=0.84,
        supports_reasoning=True,
        tags=("cheap",),
    ),
    ModelCard(
        name="llama-3-70b",
        provider="together",
        usd_per_1m_input=0.90,
        usd_per_1m_output=0.90,
        prefill_tokens_per_second=2800.0,
        decode_tokens_per_second=65.0,
        overhead_seconds=0.7,
        quality=0.90,
        tags=("open",),
    ),
    ModelCard(
        name="llama-3-8b",
        provider="together",
        usd_per_1m_input=0.20,
        usd_per_1m_output=0.20,
        prefill_tokens_per_second=5200.0,
        decode_tokens_per_second=120.0,
        overhead_seconds=0.4,
        quality=0.72,
        tags=("open", "cheap"),
    ),
    ModelCard(
        name="mixtral-8x7b",
        provider="together",
        usd_per_1m_input=0.60,
        usd_per_1m_output=0.60,
        prefill_tokens_per_second=3500.0,
        decode_tokens_per_second=90.0,
        overhead_seconds=0.5,
        quality=0.78,
        tags=("open",),
    ),
    ModelCard(
        name="text-embedding-3-small",
        provider="openai",
        usd_per_1m_input=0.02,
        usd_per_1m_output=0.0,
        prefill_tokens_per_second=12_000.0,
        decode_tokens_per_second=1.0,
        overhead_seconds=0.15,
        quality=0.70,
        is_embedding_model=True,
        tags=("embedding",),
    ),
]


class ModelRegistry:
    """A mutable collection of model cards.

    The default registry is process-global (like an API key ring); tests and
    benchmarks can construct private registries to control the plan space.
    Under ``repro serve`` its callers hold the serving lock.
    """

    def __init__(self, cards: Optional[Iterable[ModelCard]] = None):
        self._cards: Dict[str, ModelCard] = {}
        for card in cards or []:
            self.register(card)

    def register(self, card: ModelCard, overwrite: bool = False) -> None:
        if card.name in self._cards and not overwrite:
            raise ValueError(f"model {card.name!r} is already registered")
        self._cards[card.name] = card

    def unregister(self, name: str) -> None:
        if name not in self._cards:
            raise KeyError(f"model {name!r} is not registered")
        del self._cards[name]

    def get(self, name: str) -> ModelCard:
        try:
            return self._cards[name]
        except KeyError:
            known = ", ".join(sorted(self._cards)) or "<none>"
            raise KeyError(
                f"unknown model {name!r}; registered models: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cards

    def __len__(self) -> int:
        return len(self._cards)

    def chat_models(self) -> List[ModelCard]:
        """Models eligible for filter/convert physical operators."""
        cards = [c for c in self._cards.values() if not c.is_embedding_model]
        return sorted(cards, key=lambda c: (-c.quality, c.name))

    def embedding_models(self) -> List[ModelCard]:
        cards = [c for c in self._cards.values() if c.is_embedding_model]
        return sorted(cards, key=lambda c: c.name)

    def reasoning_models(self) -> List[ModelCard]:
        """Models capable of driving the chat agent's ReAct loop."""
        return [c for c in self.chat_models() if c.supports_reasoning]

    def all_cards(self) -> List[ModelCard]:
        return sorted(self._cards.values(), key=lambda c: c.name)

    def copy(self) -> "ModelRegistry":
        return ModelRegistry(self.all_cards())


_default_registry = ModelRegistry(DEFAULT_MODEL_CARDS)


def default_registry() -> ModelRegistry:
    """The process-global model registry."""
    return _default_registry


def get_model(name: str) -> ModelCard:
    """Look up a model card in the global registry."""
    return _default_registry.get(name)


def register_model(card: ModelCard, overwrite: bool = False) -> None:
    """Add a model card to the global registry."""
    _default_registry.register(card, overwrite=overwrite)


def available_models() -> List[str]:
    """Names of all chat-capable models in the global registry."""
    return [c.name for c in _default_registry.chat_models()]
