"""Heuristic semantic engine: the "brains" behind the simulated LLM.

When the ground-truth oracle has no entry for a document (e.g. a user brings
their own files), the simulated client falls back to this deterministic NLP
engine.  It is intentionally simple — keyword matching for boolean predicates
and a pattern library for field extraction — but it covers the document
shapes our corpora and examples produce, and it means the system remains
usable on arbitrary text rather than only on pre-registered corpora.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional

# Words that carry no signal when matching a predicate against a document.
_STOPWORDS = frozenset(
    """a an and are as at be been but by for from has have in is it its of on
    or that the their there these they this to was were which with will would
    about papers paper documents document records record contains contain
    mention mentions mentioning discussing discusses discuss regarding
    related concerning describes describe present presents are is""".split()
)

_NEGATIONS = ("not ", "no ", "never ", "without ", "exclude", "n't ")


def _content_words(text: str) -> List[str]:
    return [
        w
        for w in re.findall(r"[a-z0-9][a-z0-9\-]+", text.lower())
        if w not in _STOPWORDS
    ]


def answer_boolean(predicate: str, text: str) -> bool:
    """Judge a natural-language predicate against a document heuristically.

    Strategy: strip stopwords from the predicate, then require that a
    majority of the remaining content words (and all quoted phrases) appear
    in the document.  A leading negation flips the verdict.
    """
    predicate = predicate.strip()
    if not predicate:
        return True

    negated = any(neg in predicate.lower() for neg in _NEGATIONS)
    haystack = text.lower()

    # Quoted phrases must match verbatim.
    phrases = re.findall(r'"([^"]+)"', predicate) + re.findall(
        r"'([^']+)'", predicate
    )
    phrase_hits = [phrase.lower() in haystack for phrase in phrases]
    if phrases and not all(phrase_hits):
        return negated

    words = _content_words(predicate)
    if not words:
        return not negated
    hits = sum(1 for w in words if w in haystack)
    satisfied = hits >= max(1, (len(words) + 1) // 2)
    return satisfied != negated


# ---------------------------------------------------------------------------
# Field extraction pattern library.
# ---------------------------------------------------------------------------

_URL_RE = re.compile(r"https?://[^\s)\]>,\"']+")
_EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")
_MONEY_RE = re.compile(r"\$\s?([0-9][0-9,]*(?:\.[0-9]+)?)\s*(million|m|k|thousand|billion)?", re.I)
_NUMBER_RE = re.compile(r"(?<![\w.])(-?\d[\d,]*(?:\.\d+)?)(?![\w.])")
_DATE_RE = re.compile(
    r"\b(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)[a-z]*\.?\s+\d{1,2},?\s+\d{4}"
    r"|\b\d{4}-\d{2}-\d{2}\b",
    re.I,
)
_TITLE_RE = re.compile(r"^\s*(?:Title|TITLE)\s*[:\-]\s*(.+)$", re.M)
_AUTHOR_RE = re.compile(r"^\s*(?:Authors?|AUTHORS?)\s*[:\-]\s*(.+)$", re.M)

# Labelled-line extraction: "Field Name: value" lines inside documents.
def _labelled_value(field_name: str, text: str) -> Optional[str]:
    variants = {
        field_name,
        field_name.replace("_", " "),
        field_name.replace("_", "-"),
        field_name.title(),
        field_name.replace("_", " ").title(),
        field_name.upper(),
    }
    for variant in sorted(variants):
        pattern = re.compile(
            r"^\s*" + re.escape(variant) + r"\s*[:\-]\s*(.+)$", re.M | re.I
        )
        match = pattern.search(text)
        if match:
            return match.group(1).strip()
    return None


def _first_sentence(text: str) -> str:
    stripped = text.strip()
    match = re.search(r"[.!?](\s|$)", stripped)
    return stripped[: match.start() + 1] if match else stripped[:200]


def extract_field(field_name: str, description: str, text: str) -> Any:
    """Extract one field value from ``text`` heuristically.

    Dispatches on the field name / description: URLs, emails, dates, money,
    counts, titles, authors; otherwise falls back to labelled ``Name: value``
    lines, then to the first sentence of the document.
    Returns ``None`` when nothing plausible is found.
    """
    name = field_name.lower()
    desc = (description or "").lower()
    hint = f"{name} {desc}"

    labelled = _labelled_value(field_name, text)
    if labelled is not None:
        return labelled

    if "url" in hint or "link" in hint or "website" in hint:
        match = _URL_RE.search(text)
        return match.group(0).rstrip(".") if match else None
    if "email" in hint or "e-mail" in hint:
        match = _EMAIL_RE.search(text)
        return match.group(0) if match else None
    if "date" in hint or "deadline" in hint:
        match = _DATE_RE.search(text)
        return match.group(0) if match else None
    if "price" in hint or "cost" in hint or "amount" in hint or "salary" in hint:
        match = _MONEY_RE.search(text)
        return match.group(0) if match else None
    if "count" in hint or "number of" in hint or name.startswith("num_"):
        match = _NUMBER_RE.search(text)
        return match.group(1).replace(",", "") if match else None
    if "title" in hint:
        match = _TITLE_RE.search(text)
        return match.group(1).strip() if match else _first_sentence(text)
    if "author" in hint:
        match = _AUTHOR_RE.search(text)
        return match.group(1).strip() if match else None
    if "summary" in hint or "description" in hint or "abstract" in hint:
        return _first_sentence(text)
    if "name" in hint:
        # Look for 'the <Proper Noun Phrase> dataset/corpus/project'.
        match = re.search(
            r"\b[Tt]he\s+((?:[A-Z][\w\-]*\s*){1,5})(?:dataset|corpus|database|project)",
            text,
        )
        if match:
            return match.group(1).strip()
        return None
    return None


def extract_all_urls(text: str) -> List[str]:
    return [m.group(0).rstrip(".") for m in _URL_RE.finditer(text)]


def summarize(text: str, max_sentences: int = 2) -> str:
    """A deterministic extractive 'summary': the first N sentences."""
    # Split no further than the sentences kept (callers pass whole prompts).
    sentences = re.split(r"(?<=[.!?])\s+", text.strip(),
                         maxsplit=max(0, max_sentences))
    return " ".join(sentences[:max_sentences])
