"""Tokenizer: counting, truncation, and chunking."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.tokenizer import (
    _SUBWORD_CHARS,
    _count_tokens_uncached,
    count_tokens,
    count_tokens_unmemoized,
    split_into_token_chunks,
    truncate_to_tokens,
)

_PIECE = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]")


def reference_count(text: str) -> int:
    """The token rule spelled out piece by piece: the loop the tokenizer's
    single ``findall`` replaced, kept here as its reference."""
    total = 0
    for match in _PIECE.finditer(text):
        piece = match.group(0)
        if len(piece) <= _SUBWORD_CHARS or not piece[0].isalnum():
            total += 1
        else:
            total += (len(piece) + _SUBWORD_CHARS - 1) // _SUBWORD_CHARS
    return total


#: Dense in the characters the rule branches on.
token_text = st.text(
    alphabet=st.sampled_from(list("abXY09__  \t\n.,;-!?'\"()é漢字")),
    max_size=80,
)


class TestCountTokens:
    def test_empty_string_is_zero(self):
        assert count_tokens("") == 0

    def test_single_word(self):
        assert count_tokens("hello") == 2  # 5 chars -> 2 subword chunks

    def test_short_word_is_one_token(self):
        assert count_tokens("hi") == 1

    def test_punctuation_counts_separately(self):
        assert count_tokens("hi!") == 2

    def test_whitespace_only_is_zero(self):
        assert count_tokens("   \n\t  ") == 0

    def test_long_word_splits_into_subwords(self):
        # 12 characters -> 3 chunks of ~4 chars.
        assert count_tokens("abcdefghijkl") == 3

    def test_counts_scale_with_text_length(self):
        short = count_tokens("the cat sat on the mat")
        long = count_tokens("the cat sat on the mat " * 10)
        assert long == 10 * short

    def test_numbers_are_tokens(self):
        assert count_tokens("1 22 333") == 3

    def test_prose_rate_is_plausible(self):
        text = (
            "Declarative AI systems let users write logical plans and "
            "defer physical implementation choices to an optimizer."
        )
        words = len(text.split())
        tokens = count_tokens(text)
        # BPE-like: tokens should be ~1.0-2.0x word count for English prose.
        assert words <= tokens <= 2 * words


class TestFastCountMatchesReference:
    @pytest.mark.parametrize("word, tokens", [
        ("_abc_defgh", 1),   # leading underscore: one token whatever follows
        ("ab_cdefgh", 3),    # underscore inside a word is a word character
        ("abcd_efgh", 3),
        ("__init__", 1),
        ("x__", 1),
        ("abcde_", 2),
        ("é_abcdefgh", 2),   # a non-ASCII letter is punctuation to the rule
        ("ééé", 3),
    ])
    def test_edge_words(self, word, tokens):
        assert reference_count(word) == tokens
        assert _count_tokens_uncached(word) == tokens

    @given(token_text)
    @settings(max_examples=400, deadline=None)
    def test_fuzzed_texts(self, text):
        assert _count_tokens_uncached(text) == reference_count(text)
        assert count_tokens(text) == reference_count(text)
        assert count_tokens_unmemoized(text) == reference_count(text)

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_unicode(self, text):
        assert _count_tokens_uncached(text) == reference_count(text)

    def test_scale_corpus_documents(self):
        from repro.corpora.scale import _note_text

        for index in range(300):
            text = _note_text(index, 7, index % 2 == 0)
            assert _count_tokens_uncached(text) == reference_count(text)


class TestTruncateToTokens:
    def test_zero_budget_gives_empty(self):
        assert truncate_to_tokens("hello world", 0) == ""

    def test_negative_budget_gives_empty(self):
        assert truncate_to_tokens("hello world", -5) == ""

    def test_fits_returns_unchanged(self):
        text = "short text"
        assert truncate_to_tokens(text, 100) == text

    def test_truncation_respects_budget(self):
        text = "word " * 200
        truncated = truncate_to_tokens(text, 50)
        assert count_tokens(truncated) <= 50

    def test_truncation_is_a_prefix(self):
        text = "alpha beta gamma delta epsilon zeta"
        truncated = truncate_to_tokens(text, 3)
        assert text.startswith(truncated)

    def test_truncation_monotone_in_budget(self):
        text = "one two three four five six seven eight nine ten"
        lengths = [
            len(truncate_to_tokens(text, budget)) for budget in range(1, 12)
        ]
        assert lengths == sorted(lengths)


class TestSplitIntoTokenChunks:
    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError):
            split_into_token_chunks("hello", 0)
        with pytest.raises(ValueError):
            split_into_token_chunks("hello", -1)

    def test_empty_text_gives_no_chunks(self):
        assert split_into_token_chunks("", 5) == []

    def test_exact_boundary_is_single_chunk(self):
        text = "alpha beta"  # alpha = 2 subword tokens, beta = 1
        assert count_tokens(text) == 3
        assert split_into_token_chunks(text, 3) == [text]

    def test_chunks_cover_text_in_order(self):
        text = "the quick brown fox jumps over the lazy dog " * 8
        text = text.rstrip()
        chunks = split_into_token_chunks(text, 7)
        assert "".join(chunks) == text
        assert all(chunks)
        assert all(count_tokens(chunk) <= 7 for chunk in chunks)

    def test_oversized_single_token_is_hard_cut(self):
        # One 40-char word costs 10 subword tokens; with a 2-token budget
        # the truncation path yields an empty prefix, forcing the hard cut
        # of max_tokens * _SUBWORD_CHARS characters per chunk.
        text = "x" * 40
        chunks = split_into_token_chunks(text, 2)
        assert chunks == ["x" * (2 * _SUBWORD_CHARS)] * 5
        assert "".join(chunks) == text

    def test_max_tokens_one(self):
        text = "hello world!"
        chunks = split_into_token_chunks(text, 1)
        assert "".join(chunks) == text
        assert all(chunks)
        # Hard-cut chunks are capped at one subword's worth of characters.
        assert all(len(chunk) <= _SUBWORD_CHARS for chunk in chunks)

    def test_trailing_whitespace_rides_with_last_chunk(self):
        chunks = split_into_token_chunks("ab cd   ", 1)
        assert chunks == ["ab", " cd   "]
