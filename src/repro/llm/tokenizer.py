"""A deterministic, dependency-free token counter.

Real systems use BPE tokenizers (tiktoken and friends); for cost accounting we
only need a stable, monotone estimate that tracks text length the way BPE
does.  The heuristic below — whitespace words plus standalone punctuation,
with long words splitting into ~4-character subword chunks — lands within
~10% of tiktoken on English prose, which is plenty for reproducing *relative*
costs across models and plans.
"""

from __future__ import annotations

import re

from repro.llm.memo import TextMemo, register_memo

# Words, numbers, or single punctuation marks.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")

# Average characters per subword chunk for long words (BPE splits rare/long
# words into multiple tokens).
_SUBWORD_CHARS = 4

# One match per *token*, so a count is ``len(findall)`` with no Python-level
# loop: a word starting with ``_`` whole (the counting rule charges a long
# word by its chunks only when it starts alphanumeric), any other word in
# chunks of at most ``_SUBWORD_CHARS``, any other non-space character.
_COUNT_RE = re.compile(
    r"(?<![A-Za-z0-9_])_[A-Za-z0-9_]*"
    r"|[A-Za-z0-9_]{1,%d}"
    r"|[^\sA-Za-z0-9_]" % _SUBWORD_CHARS
)

#: Memo of text -> token count: a record's document is counted by every
#: (model x operator x strategy) call that sees it, but the count is a pure
#: function of the text.
_count_memo = register_memo(TextMemo("count_tokens"))


def _count_tokens_uncached(text: str) -> int:
    return len(_COUNT_RE.findall(text))


def count_tokens(text: str) -> int:
    """Count simulated tokens in ``text`` (memoized on the text).

    >>> count_tokens("")
    0
    >>> count_tokens("hello world") >= 2
    True
    """
    if not text:
        return 0
    return _count_memo.get_or_compute(text, _count_tokens_uncached)


def count_tokens_unmemoized(text: str) -> int:
    """:func:`count_tokens` for a text nobody will ask about again — a
    completion the model just produced, the per-step tail of an agent
    prompt: the same integer, and no memo entry pinning the string."""
    return _count_tokens_uncached(text)


def split_into_token_chunks(text: str, max_tokens: int) -> list:
    """Split ``text`` into consecutive chunks of at most ``max_tokens``.

    Used by the chunked (map-reduce) convert strategy for documents that do
    not fit a model's context window.  Chunks are non-empty prefixes cut on
    token boundaries; their concatenation is a prefix-preserving cover of
    the original text.
    """
    if max_tokens <= 0:
        raise ValueError(f"max_tokens must be positive, got {max_tokens}")
    chunks = []
    remaining = text
    while remaining:
        chunk = truncate_to_tokens(remaining, max_tokens)
        if not chunk:
            # A single token exceeds the budget; hard-cut to make progress.
            chunk = remaining[: max_tokens * _SUBWORD_CHARS]
        chunks.append(chunk)
        remaining = remaining[len(chunk):]
        if remaining and not remaining.strip():
            break
    return chunks


def truncate_to_tokens(text: str, max_tokens: int) -> str:
    """Return the longest prefix of ``text`` with at most ``max_tokens`` tokens.

    Used by token-reduction physical operators that trade quality for cost by
    sending the model a truncated context.
    """
    if max_tokens <= 0:
        return ""
    if count_tokens(text) <= max_tokens:
        return text
    used = 0
    end = 0
    for match in _TOKEN_RE.finditer(text):
        piece = match.group(0)
        if len(piece) <= _SUBWORD_CHARS or not piece[0].isalnum():
            cost = 1
        else:
            cost = (len(piece) + _SUBWORD_CHARS - 1) // _SUBWORD_CHARS
        if used + cost > max_tokens:
            break
        used += cost
        end = match.end()
    return text[:end]
