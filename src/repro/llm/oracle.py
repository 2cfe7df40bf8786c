"""Ground-truth registry ("oracle") for simulated semantic tasks.

Synthetic corpora know the true answer to every semantic question a pipeline
can ask about their documents ("is this paper about colorectal cancer?",
"what datasets does it reference?").  Generators register those truths here,
keyed by a stable fingerprint of the document text, and the simulated LLM
client consults the oracle first — falling back to heuristic NLP
(:mod:`repro.llm.semantics`) for text it has never seen.

The oracle also lets tests and benchmarks *score* pipeline output: quality
metrics compare extracted values against the registered truth.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.llm.memo import TextMemo, register_memo

#: Memo of text -> fingerprint: every oracle lookup, quality decision, and
#: cache key re-fingerprints the document, but the fingerprint is a pure
#: function of the text.
_fingerprint_memo = register_memo(TextMemo("fingerprint_text"))


def _fingerprint_uncached(text: str) -> str:
    normalized = " ".join(text.split())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:24]


def fingerprint_text(text: str) -> str:
    """Stable fingerprint of a document's text content (memoized).

    Whitespace runs are collapsed so that round-tripping text through file
    formats (fake-PDF streams, JSON) does not change the fingerprint.
    """
    return _fingerprint_memo.get_or_compute(text, _fingerprint_uncached)


@dataclass
class DocumentTruth:
    """Everything the corpus generator knows about one document.

    Attributes:
        predicates: natural-language predicate -> True/False.
        fields: field name -> ground-truth value (or list of values for
            one-to-many extractions).
        difficulty: in [0, 1]; scales the simulated models' error rates on
            this document (0 = trivially easy, 1 = maximally ambiguous).
        label: free-form label for debugging ("paper-03").
    """

    predicates: Dict[str, bool] = field(default_factory=dict)
    fields: Dict[str, Any] = field(default_factory=dict)
    difficulty: float = 0.2
    label: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "predicates": self.predicates,
            "fields": self.fields,
            "difficulty": self.difficulty,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DocumentTruth":
        return cls(
            predicates=dict(data.get("predicates", {})),
            fields=dict(data.get("fields", {})),
            difficulty=float(data.get("difficulty", 0.2)),
            label=str(data.get("label", "")),
        )


def _normalize_question(question: str) -> str:
    return " ".join(question.lower().split())


class GroundTruthRegistry:
    """Maps document fingerprints to :class:`DocumentTruth` entries.

    Thread-safety contract: lookups are single dict reads (atomic under the
    GIL) and truths are immutable once registered, so executor worker
    threads read without locking; registration/merge/clear — which happen
    during corpus generation, never concurrently with execution — take a
    lock so even a pathological overlap cannot corrupt the table.
    """

    #: Writes-only guard: the class's documented contract is lock-free
    #: reads (single atomic dict lookups of immutable truths).
    _GUARDED_BY = {"_truths": ("_lock", "writes")}

    def __init__(self):
        self._truths: Dict[str, DocumentTruth] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._truths)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._truths

    def register(self, text: str, truth: DocumentTruth) -> str:
        """Register ``truth`` for a document given its full text.

        Returns the fingerprint used as the key.
        """
        fp = fingerprint_text(text)
        with self._lock:
            self._truths[fp] = truth
        return fp

    def lookup(self, text: str) -> Optional[DocumentTruth]:
        return self._truths.get(fingerprint_text(text))

    def predicate_truth(self, text: str, predicate: str) -> Optional[bool]:
        """True/False if the oracle knows this predicate for this text."""
        truth = self.lookup(text)
        if truth is None:
            return None
        want = _normalize_question(predicate)
        for known, answer in truth.predicates.items():
            if _normalize_question(known) == want:
                return answer
        # Substring match lets slightly rephrased predicates still hit.
        for known, answer in truth.predicates.items():
            norm = _normalize_question(known)
            if norm in want or want in norm:
                return answer
        return None

    def field_truth(self, text: str, field_name: str) -> Tuple[bool, Any]:
        """(known?, value) for a field of this document."""
        truth = self.lookup(text)
        if truth is None:
            return False, None
        key = field_name.lower()
        for known, value in truth.fields.items():
            if known.lower() == key:
                return True, value
        return False, None

    def difficulty(self, text: str, default: float = 0.5) -> float:
        truth = self.lookup(text)
        return truth.difficulty if truth is not None else default

    def clear(self) -> None:
        with self._lock:
            self._truths.clear()

    # -- persistence (sidecar files shipped with generated corpora) --------

    def save(self, path: Path) -> None:
        """Write all registered truths to a JSON sidecar file."""
        payload = {fp: truth.to_dict() for fp, truth in self._truths.items()}
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    def load(self, path: Path) -> int:
        """Merge truths from a JSON sidecar file; returns entries loaded."""
        payload = json.loads(Path(path).read_text())
        with self._lock:
            for fp, data in payload.items():
                self._truths[fp] = DocumentTruth.from_dict(data)
        return len(payload)


_global_oracle = GroundTruthRegistry()


def global_oracle() -> GroundTruthRegistry:
    """The process-global ground-truth registry."""
    return _global_oracle
