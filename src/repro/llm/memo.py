"""Process-wide memoization of hot text-derived values.

Every simulated LLM call needs two pure functions of the document text —
its token count and its oracle fingerprint — and a record's document flows
through dozens of (model x operator x strategy) calls per run.  Both
functions are O(len(text)) (a regex scan, a SHA-256), so deriving them
again per call dominates real wall-clock time even though the *simulated*
clock never sees it.

:class:`TextMemo` is a small bounded memo table keyed on the text itself.
CPython caches a ``str``'s hash in the object, and dict probes shortcut on
pointer identity, so a hit on the *same* string object costs one dict
lookup; a hit on an equal-but-distinct string costs one hash + one memcmp —
both far cheaper than recomputing.

Eviction is by generation, not by entry: inserts go into a *young* dict,
lookups try *young* then *old*, and when *young* holds half the cap it
becomes *old* and the previous *old* is dropped whole.  An entry therefore
survives between ``max_entries // 2`` and ``max_entries`` later inserts,
and an insert is O(1) whatever was evicted before it.  (Deleting the
oldest key of one dict — ``del d[next(iter(d))]`` — is not: the iterator
walks every deleted slot at the front of the table until CPython compacts
it.)  These are perf caches for a working set of documents, not semantic
caches, so the cheapest hit path wins over LRU bookkeeping: a hit
refreshes nothing.

What belongs in a memo is text that is asked about again and already
lives elsewhere: documents (held by records and corpora) and the constant
pieces of a prompt.  A whole prompt or a completion is unique to its call
— a memo can only miss on it, and would pin the string.  The client counts
prompts piece by piece and completions unmemoized for that reason.

The tokenizer and oracle own module-level instances; :func:`memo_stats` and
:func:`clear_memos` aggregate them for tests and diagnostics.  They take no
lock: a value is a pure function of its text, so a race between two
threads (under ``repro serve`` every engine caller holds the serving lock
anyway) costs a recount, never a wrong answer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

#: Default entry cap per memo.  Entries hold references to strings that
#: already live elsewhere (see the module docstring), so the marginal
#: memory is one dict slot per entry.
DEFAULT_MAX_ENTRIES = 16_384

_SENTINEL = object()


class TextMemo:
    """A bounded text -> value memo with hit/miss/eviction counters."""

    __slots__ = ("name", "max_entries", "_generation", "_young", "_old",
                 "hits", "misses", "evictions")

    def __init__(self, name: str, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        #: Entries per generation: two generations fill the cap.
        self._generation = max(1, max_entries // 2)
        self._young: Dict[str, Any] = {}
        self._old: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_compute(self, text: str, compute: Callable[[str], Any]) -> Any:
        value = self._young.get(text, _SENTINEL)
        if value is _SENTINEL:
            value = self._old.get(text, _SENTINEL)
        if value is not _SENTINEL:
            self.hits += 1
            return value
        value = compute(text)
        self.misses += 1
        if len(self._young) >= self._generation:
            self._rotate()
        self._young[text] = value
        return value

    def _rotate(self) -> None:
        """Retire the young generation; the old one is dropped whole."""
        dropped = self._old
        if self.max_entries > 1:
            self._old = self._young
        else:
            dropped = self._young  # no room for a second generation
        self.evictions += len(dropped)
        self._young = {}

    def __len__(self) -> int:
        return len(self._young) + len(self._old)

    def clear(self) -> None:
        self._old = {}
        self._young = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: All memos registered at import time (tokenizer, oracle).
_registry: List[TextMemo] = []


def register_memo(memo: TextMemo) -> TextMemo:
    _registry.append(memo)
    return memo


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Per-memo hit/miss/eviction counters (diagnostics and tests)."""
    return {memo.name: memo.stats() for memo in _registry}


def clear_memos() -> None:
    """Drop all memoized values and reset counters (test isolation)."""
    for memo in _registry:
        memo.clear()
