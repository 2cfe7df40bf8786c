"""Large synthetic corpora for scale-out benchmarks.

The demo corpora (papers/legal/realestate) are sized like the paper's
scenarios — a dozen documents.  Measuring the sharded and async executors'
scaling curves needs sources three to four orders of magnitude larger, so
this module generates a deterministic in-memory corpus of 10k–100k short
"clinical notes": no disk writes, oracle truth registered per note, every
note distinct.  The library workloads of ``bench/`` (``batch_plain``,
``batch_recorded``, ``incr_rerun``) run over it.

Determinism: note text is a pure function of ``(index, seed)``, so a given
``(n_docs, seed)`` pair always produces byte-identical documents,
fingerprints, and oracle answers — run after run, process after process.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.core.builtin_schemas import TextFile
from repro.core.sources import MemorySource
from repro.llm.oracle import DocumentTruth, global_oracle

#: The canonical filter predicate of the scale workload.
SCALE_PREDICATE = "The note is about colorectal cancer"

#: Extraction fields of the scale workload's schema.
SCALE_FIELDS: Dict[str, str] = {
    "cohort": "The name of the study cohort",
    "stage": "The reported disease stage",
}

#: Every ``RELEVANT_EVERY``-th note matches :data:`SCALE_PREDICATE`.
RELEVANT_EVERY = 2

_CONDITIONS = (
    "pediatric asthma",
    "type 2 diabetes",
    "chronic kidney disease",
    "seasonal influenza",
)

_STAGES = ("I", "II", "III", "IV")


def _note_text(index: int, seed: int, relevant: bool) -> str:
    cohort = f"SC-{seed}-{index:06d}"
    if relevant:
        condition = "colorectal cancer"
        detail = (
            "colonoscopy screening with adenoma follow-up and "
            "KRAS mutation profiling"
        )
    else:
        condition = _CONDITIONS[index % len(_CONDITIONS)]
        detail = "routine outpatient monitoring with standard labs"
    stage = _STAGES[index % len(_STAGES)]
    return (
        f"Clinical note {index} (cohort {cohort}). "
        f"The patient presents with {condition}, stage {stage}. "
        f"Management plan: {detail}. "
        f"Recorded by registry node {index % 7} for longitudinal study."
    )


def generate_scale_source(
    n_docs: int = 10_000,
    seed: int = 11,
    difficulty: float = 0.0,
    dataset_id: str = "",
) -> MemorySource:
    """An in-memory corpus of ``n_docs`` short notes with oracle truth.

    Half the notes (every :data:`RELEVANT_EVERY`-th, starting at 0) are
    about colorectal cancer; each note carries a unique ``cohort`` name and
    a cycling ``stage``, so filters, converts, and group-bys all have
    non-trivial work.  Notes are deliberately short (~40 words) — at 100k
    documents the simulated tokenizer, not the prose, should dominate.
    """
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    oracle = global_oracle()
    docs = []
    for index in range(n_docs):
        relevant = index % RELEVANT_EVERY == 0
        text = _note_text(index, seed, relevant)
        docs.append(text)
        oracle.register(
            text,
            DocumentTruth(
                predicates={
                    SCALE_PREDICATE: relevant,
                    "about colorectal cancer": relevant,
                },
                fields={
                    "cohort": f"SC-{seed}-{index:06d}",
                    "stage": _STAGES[index % len(_STAGES)],
                },
                difficulty=difficulty,
                label=f"scale-note-{index:06d}",
            ),
        )
    return MemorySource(
        docs,
        dataset_id=dataset_id or f"scale-{n_docs}-s{seed}",
        schema=TextFile,
    )


def _scale_truth(index: int, seed: int, relevant: bool,
                 difficulty: float) -> DocumentTruth:
    return DocumentTruth(
        predicates={
            SCALE_PREDICATE: relevant,
            "about colorectal cancer": relevant,
        },
        fields={
            "cohort": f"SC-{seed}-{index:06d}",
            "stage": _STAGES[index % len(_STAGES)],
        },
        difficulty=difficulty,
        label=f"scale-note-{index:06d}",
    )


def mutate_scale_source(
    n_docs: int = 10_000,
    seed: int = 11,
    adds: int = 0,
    edits: int = 0,
    drops: int = 0,
    difficulty: float = 0.0,
    dataset_id: str = "",
) -> MemorySource:
    """A deterministically drifted copy of the ``(n_docs, seed)`` corpus.

    The delta is a pure function of ``(n_docs, seed, adds, edits, drops)``:
    a dedicated ``random.Random`` seeded from exactly those values picks
    disjoint edit/drop victims, edited notes gain a fixed addendum
    sentence, and added notes continue the index sequence at ``n_docs``.
    Surviving documents keep their original manifest key
    (``<dataset_id>-<index>``), so diffing a mutated corpus against a
    :func:`generate_scale_source` base run yields precisely the requested
    added/changed/dropped sets — the reproducible workload behind the
    incremental-execution benchmarks and ``repro runs rerun``.

    Oracle truth is (re-)registered for every live document, edited ones
    included — an edit changes the fingerprint, not the answers.
    """
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    if min(adds, edits, drops) < 0:
        raise ValueError("adds/edits/drops must all be >= 0")
    if edits + drops > n_docs:
        raise ValueError(
            f"cannot edit {edits} + drop {drops} of {n_docs} documents"
        )
    rng = random.Random(f"scale-mutate:{n_docs}:{seed}:{adds}:{edits}:{drops}")
    victims = rng.sample(range(n_docs), edits + drops)
    edited = set(victims[:edits])
    dropped = set(victims[edits:])
    base_id = dataset_id or f"scale-{n_docs}-s{seed}"
    oracle = global_oracle()
    items = []
    for index in range(n_docs + adds):
        if index in dropped:
            continue
        relevant = index % RELEVANT_EVERY == 0
        text = _note_text(index, seed, relevant)
        if index in edited:
            text += (
                " Addendum: note revised after the follow-up visit; "
                "assessment unchanged, vitals stable."
            )
        oracle.register(text, _scale_truth(index, seed, relevant, difficulty))
        items.append({
            "filename": f"{base_id}-{index}",
            "text_contents": text,
        })
    return MemorySource(items, dataset_id=base_id, schema=TextFile)
