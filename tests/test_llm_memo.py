"""The text memoization layer: correctness, single-computation, eviction."""

import sys
import threading

import pytest

from repro.core.builtin_schemas import TextFile
from repro.core.records import DataRecord
from repro.llm import memo as memo_module
from repro.llm import oracle as oracle_module
from repro.llm import tokenizer as tokenizer_module
from repro.llm.memo import TextMemo, clear_memos, memo_stats
from repro.llm.oracle import fingerprint_text
from repro.llm.tokenizer import count_tokens


class TestTextMemoUnit:
    def test_computes_once_per_text(self):
        memo = TextMemo("t")
        calls = []

        def compute(text):
            calls.append(text)
            return len(text)

        assert memo.get_or_compute("abc", compute) == 3
        assert memo.get_or_compute("abc", compute) == 3
        assert calls == ["abc"]
        assert memo.hits == 1
        assert memo.misses == 1

    def test_distinct_texts_distinct_values(self):
        memo = TextMemo("t")
        assert memo.get_or_compute("a", len) == 1
        assert memo.get_or_compute("bb", len) == 2
        assert len(memo) == 2

    def test_eviction_respects_bound(self):
        memo = TextMemo("t", max_entries=2)
        for text in ("a", "b", "c"):
            memo.get_or_compute(text, len)
        assert len(memo) == 2
        assert memo.evictions == 1

    @pytest.mark.parametrize("cap", [1, 2, 3, 7, 64])
    def test_never_holds_more_than_the_cap(self, cap):
        memo = TextMemo("t", max_entries=cap)
        for index in range(5 * cap + 3):
            memo.get_or_compute(f"text-{index}", len)
            assert len(memo) <= cap
            assert memo.stats()["entries"] == len(memo)
        stats = memo.stats()
        assert stats["misses"] == 5 * cap + 3
        assert stats["evictions"] == stats["misses"] - stats["entries"]

    def test_entry_survives_one_rotation_and_not_two(self):
        # Two generations of 4: an entry is found after the rotation that
        # retires it (a hit, no recompute) and gone after the next one.
        memo = TextMemo("t", max_entries=8)
        computed = []

        def compute(text):
            computed.append(text)
            return len(text)

        memo.get_or_compute("kept", compute)
        for index in range(4):
            memo.get_or_compute(f"a{index}", compute)
        assert memo.evictions == 0
        assert memo.get_or_compute("kept", compute) == 4
        assert computed.count("kept") == 1 and memo.hits == 1
        for index in range(4):
            memo.get_or_compute(f"b{index}", compute)
        assert memo.evictions == 4
        memo.get_or_compute("kept", compute)
        assert computed.count("kept") == 2

    def test_a_hit_does_not_refresh(self):
        memo = TextMemo("t", max_entries=4)
        memo.get_or_compute("a", len)
        memo.get_or_compute("b", len)
        memo.get_or_compute("a", len)  # hit: no move to the young side
        for text in ("c", "d", "e"):
            memo.get_or_compute(text, len)
        assert memo.misses == 5
        memo.get_or_compute("a", len)
        assert memo.misses == 6

    def test_stats_keys(self):
        assert sorted(TextMemo("t").stats()) == [
            "entries", "evictions", "hits", "misses",
        ]

    def test_bound_and_values_hold_under_threads(self):
        memo = TextMemo("t", max_entries=16)
        wrong = []
        over = []

        def worker(offset):
            for index in range(3_000):
                text = f"w{(index * 7 + offset) % 97}"
                if memo.get_or_compute(text, len) != len(text):
                    wrong.append(text)
                if len(memo) > 16:
                    over.append(len(memo))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and over == []

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            TextMemo("t", max_entries=0)

    def test_clear_resets_counters(self):
        memo = TextMemo("t")
        memo.get_or_compute("a", len)
        memo.get_or_compute("a", len)
        memo.clear()
        assert len(memo) == 0
        assert memo.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
        }


class TestModuleMemos:
    def test_registry_exposes_tokenizer_and_oracle_memos(self):
        stats = memo_stats()
        assert "count_tokens" in stats
        assert "fingerprint_text" in stats

    def test_count_tokens_tokenizes_once_per_text(self, monkeypatch):
        clear_memos()
        calls = []
        real = tokenizer_module._count_tokens_uncached

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(
            tokenizer_module, "_count_tokens_uncached", counting
        )
        text = "memoized tokenization should only walk the regex once"
        first = count_tokens(text)
        second = count_tokens(text)
        assert first == second == real(text)
        assert calls == [text]

    def test_fingerprint_hashes_once_per_text(self, monkeypatch):
        clear_memos()
        calls = []
        real = oracle_module._fingerprint_uncached

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(
            oracle_module, "_fingerprint_uncached", counting
        )
        text = "the same document fingerprinted twice"
        assert fingerprint_text(text) == fingerprint_text(text)
        assert calls == [text]

    def test_memoized_results_match_uncached(self):
        clear_memos()
        texts = [
            "",
            "hi",
            "A study on colorectal cancer.",
            "word " * 50,
            "punctuation! and; symbols?",
            "   leading and trailing   ",
        ]
        for text in texts:
            assert count_tokens(text) == \
                tokenizer_module._count_tokens_uncached(text)
            assert fingerprint_text(text) == \
                oracle_module._fingerprint_uncached(text)

    def test_clear_memos_drops_entries(self):
        count_tokens("something to remember")
        clear_memos()
        stats = memo_stats()
        assert all(s["entries"] == 0 for s in stats.values())

    def test_default_cap_is_bounded(self):
        assert memo_module.DEFAULT_MAX_ENTRIES > 0


class TestDocumentTextCache:
    def _record(self, text):
        record = DataRecord(TextFile, source_id="memo-test")
        record.filename = "doc.txt"
        record.text_contents = text
        return record

    def test_document_text_is_stable(self):
        record = self._record("first version")
        assert record.document_text() == record.document_text()

    def test_mutation_invalidates_cached_text(self):
        record = self._record("first version")
        before = record.document_text()
        record.text_contents = "second version"
        after = record.document_text()
        assert "first version" in before
        assert "second version" in after
        assert before != after
