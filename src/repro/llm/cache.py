"""Semantic call caching.

Palimpzest-style systems cache LLM answers: the same model asked the same
question about the same document always gives the same answer, so repeated
pipeline runs (and repeated sub-questions within a run) should not pay
twice.  A :class:`CallCache` keys on
``(model, task kind, task signature, document fingerprint, context
fraction)`` and the client consults it before "calling the model"; hits are
metered as a near-free cache lookup instead of a priced call.

Caching is opt-in (pass a cache to the client / execution context): cost
accounting benchmarks compare cold vs warm runs explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

CacheKey = Tuple[str, str, str, str, float]

_MISS = object()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CallCache:
    """In-memory cache of simulated model answers.

    Args:
        max_entries: evict the least-recently-used entry beyond this many;
            None = unbounded.  A lookup hit refreshes an entry's recency, so
            hot answers survive even when they were stored early.

    A cache takes no lock: its answers are pure functions of the key, and
    under ``repro serve`` every engine caller holds the serving lock, so
    lookups and stores never interleave.
    """

    #: Simulated latency of a cache hit, in seconds.
    HIT_LATENCY_SECONDS = 0.002

    def __init__(self, max_entries: Optional[int] = None):
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._max_entries = max_entries
        self.stats = CacheStats()

    @staticmethod
    def make_key(model: str, kind: str, task_signature: str,
                 fingerprint: str, context_fraction: float = 1.0) -> CacheKey:
        return (model, kind, task_signature, fingerprint,
                round(context_fraction, 4))

    def lookup(self, key: CacheKey) -> Tuple[bool, Any]:
        """(hit?, value).  Updates hit/miss statistics and LRU recency."""
        value = self._entries.get(key, _MISS)
        if value is not _MISS:
            self.stats.hits += 1
            if self._max_entries is not None:
                self._entries.move_to_end(key)
            return True, value
        self.stats.misses += 1
        return False, None

    def store(self, key: CacheKey, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        elif (self._max_entries is not None
                and len(self._entries) >= self._max_entries):
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.stats = CacheStats()
