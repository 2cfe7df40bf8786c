"""The paper's claims, E1–E13 of EXPERIMENTS.md, as one exact table.

Each row of :data:`CLAIMS` is one quantity EXPERIMENTS.md prints: the
paper's value (None where the paper states none), the exact value this
code produces, at the precision the document prints it, and the shape
check that relates the two (e.g. "runtime within 2x of the paper's
240 s").  Everything measured is deterministic: seeded corpora, a seeded
error process, and runtime/cost in *simulated* seconds and USD on the
virtual clock.  So a 1 % model-price move, a different plan choice or
one more record fails a named row.

Each experiment is measured once per session by one fixture named after
it (``e1`` … ``e13``) that returns a flat dict of quantities.  Claims
that are not numbers (tool sequences, the auto-selected schema, the
generated program, plan shapes) are plain asserts, one test per
experiment.  ``test_experiments_md_states_every_claim`` pins the
document to the table: every row's id appears in its ``## E<n>`` section,
in a table row whose Measured cell shows the measured value.

Run: ``PYTHONPATH=src python -m pytest tests/test_paper_claims.py``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import pytest

import repro as pz
from repro.chat.codegen import exec_program
from repro.chat.session import PalimpChatSession
from repro.core.builtin_schemas import PDFFile, TextFile
from repro.core.sources import (
    DirectorySource,
    MemorySource,
    register_datasource,
)
from repro.corpora.legal import CONTRACT_FIELDS, LEGAL_PREDICATE
from repro.corpora.papers import (
    CLINICAL_FIELDS,
    PAPERS_PREDICATE,
    generate_paper_corpus,
)
from repro.corpora.realestate import LISTING_FIELDS, REALESTATE_PREDICATE
from repro.evaluation.metrics import extraction_quality, filter_quality
from repro.execution.executors import SequentialExecutor
from repro.llm.cache import CallCache
from repro.llm.models import ModelCard, ModelRegistry, default_registry
from repro.llm.oracle import DocumentTruth, global_oracle
from repro.optimizer.cost_model import CostModel
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.planner import enumerate_plans, plan_space_size
from repro.physical.joins import EmbeddingBlockedJoin, LLMSemanticJoin
from repro.physical.plan import PhysicalPlan
from repro.physical.scan import MarshalAndScan

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@dataclass(frozen=True)
class Claim:
    """One EXPERIMENTS.md quantity.

    ``id`` is ``E<n>.<quantity>``, the key of that quantity in the
    experiment's measurement.  ``holds(value, paper, e)`` is the shape
    check, given the whole measurement ``e``; None where the exact
    ``measured`` is the whole claim.
    """

    id: str
    paper: Any
    measured: Any
    holds: Optional[Callable[[Any, Any, dict], bool]] = None


def same(value, paper, e) -> bool:
    return value == paper


def within_2x(value, paper, e) -> bool:
    return paper / 2 <= value <= paper * 2


GPT_4O_PLAN = ("MarshalAndScan -> LLMFilter[gpt-4o] -> "
               "LLMConvertConventional[gpt-4o]")
LLAMA_70B_PLAN = ("MarshalAndScan -> LLMFilter[llama-3-70b] -> "
                  "LLMConvertBonded[llama-3-70b]")

CLAIMS = [
    # E1 — Fig. 5: 11 papers -> 6 datasets with URLs, ≈ 240 s, ≈ $0.35.
    Claim("E1.scan.records_in", 11, 11, same),
    Claim("E1.records", 6, 6, same),
    Claim("E1.urls_valid", 6, 6, same),
    Claim("E1.f1", None, 1.0),
    Claim("E1.time_s", 240.0, 210.1, within_2x),
    Claim("E1.cost_usd", 0.35, 0.3605, within_2x),
    Claim("E1.plan", None, GPT_4O_PLAN),
    Claim("E1.plans_considered", None, 120),
    Claim("E1.scan.time_s", None, 1.8),
    Claim("E1.filter.records_out", None, 8,
          lambda v, p, e: v == e["convert.records_in"]),
    Claim("E1.filter.time_s", None, 49.4),
    Claim("E1.filter.cost_usd", None, 0.089),
    Claim("E1.filter.llm_calls", None, 11,
          lambda v, p, e: v == e["scan.records_out"]),
    Claim("E1.filter.input_tokens", None, 35552),
    Claim("E1.convert.time_s", None, 158.9, lambda v, p, e: abs(
        e["scan.time_s"] + e["filter.time_s"] + v - e["time_s"]) < 0.2),
    Claim("E1.convert.cost_usd", None, 0.2715, lambda v, p, e: abs(
        e["filter.cost_usd"] + v - e["cost_usd"]) < 0.001),
    Claim("E1.convert.llm_calls", None, 32),
    Claim("E1.convert.input_tokens", None, 105292),
    # E2 — §2.1: one logical plan, three policies, promised trade-offs
    # (the max-quality row is E1's run).
    Claim("E2.min_cost.records", None, 5),
    Claim("E2.min_cost.cost_usd", None, 0.003,
          lambda v, p, e: v < e["max_quality.cost_usd"] / 10),
    Claim("E2.min_cost.time_s", None, 20.4),
    Claim("E2.min_cost.f1", None, 0.909,
          lambda v, p, e: v <= e["max_quality.f1"]),
    Claim("E2.min_cost.plan", None,
          "MarshalAndScan -> EmbeddingFilter[text-embedding-3-small] -> "
          "TokenReducedConvert[gpt-4o-mini@0.35]"),
    Claim("E2.min_time.records", None, 6),
    Claim("E2.min_time.cost_usd", None, 0.0027),
    Claim("E2.min_time.time_s", None, 11.2,
          lambda v, p, e: v < e["max_quality.time_s"] / 5),
    Claim("E2.min_time.f1", None, 1.0,
          lambda v, p, e: v <= e["max_quality.f1"]),
    Claim("E2.min_time.plan", None,
          "MarshalAndScan -> EmbeddingFilter[text-embedding-3-small] -> "
          "CodeSynthesisConvert[llama-3-8b]",
          lambda v, p, e: len({v, e["min_cost.plan"],
                               e["max_quality.plan"]}) == 3),
    Claim("E2.cost_cap.cost_usd", None, 0.0533,
          lambda v, p, e: v < e["max_quality.cost_usd"]),
    Claim("E2.cost_cap.f1", None, 0.909,
          lambda v, p, e: v <= e["max_quality.f1"]),
    Claim("E2.cost_cap.plan", None, LLAMA_70B_PLAN),
    Claim("E2.time_cap.time_s", None, 59.9, lambda v, p, e: v <= 60.0),
    Claim("E2.time_cap.f1", None, 0.909,
          lambda v, p, e: v <= e["max_quality.f1"]),
    Claim("E2.time_cap.plan", None, "MarshalAndScan -> LLMFilter[llama-3-70b]"
                                    " -> LLMConvertBonded[gpt-4o]"),
    Claim("E2.hard.max_quality.f1", None, 0.947,
          lambda v, p, e: v >= e["hard.min_cost.f1"] + 0.1),
    Claim("E2.hard.max_quality.cost_usd", None, 0.5986),
    Claim("E2.hard.min_cost.f1", None, 0.75),
    Claim("E2.hard.min_cost.cost_usd", None, 0.0029,
          lambda v, p, e: v < e["hard.max_quality.cost_usd"] / 20),
    # E3 — §2.1: "a search space of all possible physical plans".
    Claim("E3.plans.filter", None, 6,
          lambda v, p, e: v == e["chat_models"] + e["embedding_models"]),
    Claim("E3.plans.filter_convert", None, 120,
          lambda v, p, e: v == e["plans.filter"] * 4 * e["chat_models"]),
    Claim("E3.plans.filter_convert_filter", None, 720, lambda v, p, e: v == (
        e["plans.filter_convert"] * e["plans.filter"])),
    Claim("E3.plans.2_models", None, 16, lambda v, p, e: v == 4 * 2 ** 2),
    Claim("E3.plans.4_models", None, 64, lambda v, p, e: v == 4 * 4 ** 2),
    Claim("E3.plans.8_models", None, 256, lambda v, p, e: v == 4 * 8 ** 2),
    Claim("E3.enumerated", None, 120,
          lambda v, p, e: v == e["plans.filter_convert"]),
    # E4 — Fig. 4: chat decomposes the request into a tool chain.
    Claim("E4.records", 6, 6, same),
    Claim("E4.agent_cost_usd", None, 0.0762, lambda v, p, e: v > 0),
    # E5 — Fig. 3: a folder of PDFs registers through chat.
    Claim("E5.files", 11, 11, same),
    Claim("E5.records", 11, 11,
          lambda v, p, e: v == e["files"] == e["declared"]),
    Claim("E5.min_text_chars", None, 11465, lambda v, p, e: v > 500),
    Claim("E5.min_pages", None, 4, lambda v, p, e: v >= 1),
    # E6 — Fig. 6: the generated program re-executes to the same result.
    Claim("E6.records", 6, 6, same),
    Claim("E6.reexecuted_records", 6, 6, same),
    # E7 — legal discovery: 20 documents, 6 responsive.
    Claim("E7.records", None, 6, lambda v, p, e: 4 <= v <= 8),
    Claim("E7.cost_usd", None, 0.1809),
    Claim("E7.time_s", None, 172.7),
    Claim("E7.plan", None, GPT_4O_PLAN),
    Claim("E7.max_quality.filter_f1", None, 1.0,
          lambda v, p, e: v >= e["min_cost.filter_f1"]),
    Claim("E7.min_cost.filter_f1", None, 0.462),
    Claim("E7.max_quality.filter_cost_usd", None, 0.0801),
    Claim("E7.min_cost.filter_cost_usd", None, 0.0006,
          lambda v, p, e: v < e["max_quality.filter_cost_usd"]),
    # E8 — real-estate search: 24 listings, 9 waterfront.
    Claim("E8.waterfront_listings", None, 9, lambda v, p, e: 7 <= v <= 11),
    Claim("E8.average_price", None, 671111, lambda v, p, e: v > 500_000),
    Claim("E8.cost_usd", None, 0.072),
    Claim("E8.time_s", None, 232.3),
    Claim("E8.cities", None, 4),
    Claim("E8.listings", None, 24),
    Claim("E8.retrieved", None, 5),
    Claim("E8.retrieved_waterfront", None, 3,
          lambda v, p, e: v > e["retrieved"] / 2),
    # E9 — what the optimizer buys.
    Claim("E9.budget.cost_usd", None, 0.0533,
          lambda v, p, e: v < e["gpt_4o.cost_usd"]),
    Claim("E9.budget.f1", None, 0.909, lambda v, p, e: (
        e["llama_3_8b.f1"] <= v <= e["gpt_4o.f1"])),
    Claim("E9.budget.plan", None, LLAMA_70B_PLAN),
    Claim("E9.gpt_4o.cost_usd", None, 0.3605),
    Claim("E9.gpt_4o.f1", None, 1.0),
    Claim("E9.llama_3_8b.cost_usd", None, 0.023),
    Claim("E9.llama_3_8b.f1", None, 0.8),
    Claim("E9.sentinel.runs", None, 6, lambda v, p, e: v > 0),
    Claim("E9.sentinel.cost_usd", None, 0.014, lambda v, p, e: 0 < v < 0.05),
    Claim("E9.sentinel.naive_quality", None, 0.397,
          lambda v, p, e: not e["sentinel.from_sample"][0]),
    Claim("E9.sentinel.sampled_quality", None, 0.8,
          lambda v, p, e: e["sentinel.from_sample"][1]),
    Claim("E9.sentinel.scored_plans", None, 50, lambda v, p, e: all(
        0.0 <= q <= 1.0 for q in e["sentinel.scored_qualities"])),
    Claim("E9.sentinel.chosen_quality", None, 1.0),
    Claim("E9.space.full", None, 120),
    Claim("E9.space.shrunk", None, 50, lambda v, p, e: v < e["space.full"]),
    Claim("E9.space.full_min_cost", None, 0.002),
    Claim("E9.space.shrunk_min_cost", None, 0.0084,
          lambda v, p, e: v > e["space.full_min_cost"]),
    # E10 — scaling with corpus size and with workers (40 papers).
    Claim("E10.cost_usd.10", None, 0.318),
    Claim("E10.cost_usd.40", None, 1.302),
    Claim("E10.cost_usd.120", None, 3.78, lambda v, p, e: (
        v / 120 == pytest.approx(e["cost_usd.10"] / 10, rel=0.3))),
    Claim("E10.time_s.10", None, 185.0),
    Claim("E10.time_s.40", None, 758.8),
    Claim("E10.time_s.120", None, 2208.2),
    Claim("E10.workers_4.time_s", None, 199.0),
    Claim("E10.workers_4.speedup", None, 3.81, lambda v, p, e: v > 2.5),
    Claim("E10.workers_8.time_s", None, 102.8),
    Claim("E10.workers_8.speedup", None, 7.38,
          lambda v, p, e: v > e["workers_4.speedup"]),
    Claim("E10.workers_4.cost_usd", None, 1.302,
          lambda v, p, e: v == e["cost_usd.40"]),
    Claim("E10.workers_8.cost_usd", None, 1.302,
          lambda v, p, e: v == e["cost_usd.40"]),
    Claim("E10.record_sets", None, 1),
    # E11 — a shared call cache across runs (none within one).
    Claim("E11.cold.cost_usd", None, 0.3605),
    Claim("E11.cold.time_s", None, 210.1),
    Claim("E11.cold.cache_lookups", None, 43),
    Claim("E11.cold.cache_hits", None, 0),
    Claim("E11.warm.cost_usd", None, 0.0),
    Claim("E11.warm.time_s", None, 1.8,
          lambda v, p, e: v < e["cold.time_s"] / 100),
    Claim("E11.warm.records", None, 6, lambda v, p, e: e["warm.identical"]),
    Claim("E11.hit_rate", None, 0.5, lambda v, p, e: v > 0.4),
    # E12 — documents longer than a model's context window.
    Claim("E12.small_window.records", None, 6),
    Claim("E12.small_window.llm_calls", None, 54,
          lambda v, p, e: v > e["small_window.records"]),
    Claim("E12.small_window.urls", None, 6,
          lambda v, p, e: v == e["small_window.records"]),
    Claim("E12.small_window.emails", None, 6,
          lambda v, p, e: v == e["small_window.records"]),
    Claim("E12.small_window.plan", None,
          "MarshalAndScan -> ChunkedConvert[small-window-model@200t]"),
    Claim("E12.large_window.records", None, 6),
    Claim("E12.large_window.plan", None,
          "MarshalAndScan -> LLMConvertConventional[gpt-4o]"),
    # E13 — semantic join vs embedding-blocked join.
    Claim("E13.full.llm_calls", None, 60,
          lambda v, p, e: v == e["lefts"] * e["rights"]),
    Claim("E13.blocked.llm_calls", None, 34,
          lambda v, p, e: v < e["full.llm_calls"]),
    Claim("E13.full.cost_usd", None, 0.0194),
    Claim("E13.blocked.cost_usd", None, 0.0058,
          lambda v, p, e: v < e["full.cost_usd"]),
    Claim("E13.full.matches", None, 6, lambda v, p, e: v == e["lefts"]),
    Claim("E13.blocked.matches", None, 6, lambda v, p, e: v == e["lefts"]),
]


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, request):
    experiment, quantity = claim.id.split(".", 1)
    e = request.getfixturevalue(experiment.lower())
    assert e[quantity] == claim.measured
    if claim.holds is not None:
        assert claim.holds(e[quantity], claim.paper, e)


def test_experiments_md_states_every_claim():
    """Each row's id sits in its ``## E<n>`` section, in a table row whose
    third cell (Measured) shows the value; no row names a retired id."""
    rows = {}
    section = None
    for line in EXPERIMENTS_MD.read_text().splitlines():
        heading = re.match(r"## (E\d+)\b", line)
        if heading:
            section = heading.group(1)
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        row_id = re.fullmatch(r"`(E\d+\.[\w.]+)`", cells[0])
        if row_id and len(cells) == 4:
            rows[row_id.group(1)] = (section, cells[2])
    assert sorted(rows) == sorted(claim.id for claim in CLAIMS)
    for claim in CLAIMS:
        section, shown = rows[claim.id]
        assert section == claim.id.split(".")[0], claim.id
        value = re.escape(str(claim.measured))
        assert re.search(rf"(?<![\d.]){value}(?![\d])", shown), (
            f"{claim.id}: EXPERIMENTS.md shows {shown!r}, "
            f"the code measures {claim.measured!r}")


def test_e3_policy_picks_are_optimal(e3):
    estimates = e3["estimates"]
    best = pz.MaxQuality().choose(estimates)
    assert best.quality == max(est.quality for est in estimates)
    cheapest = pz.MinCost().choose(estimates)
    assert cheapest.cost_usd == min(est.cost_usd for est in estimates)


def test_e4_fig4_tool_chain(e4):
    assert e4["tool_sequences"] == [
        ["load_dataset"],
        ["filter_dataset", "create_schema", "convert_dataset"],
        ["set_optimization_target", "execute_pipeline"],
        ["get_execution_stats"],
    ]
    # Restoring the first turn drops the filter the second one added.
    assert e4["plan_depths"] == (2, 1)


def test_e5_pdf_schema_auto_selected(e5):
    reply = e5["reply"]
    assert reply.tool_sequence == ["load_dataset"]
    assert "11 records" in reply.text
    assert "PDFFile" in reply.text
    assert e5["schema"] is PDFFile


def test_e6_generated_program_matches_fig6(e6):
    for stage in (
        "pz.Dataset(source='sigmod-demo')",
        "dataset.filter(",
        "pz.make_schema(",
        "pz.Cardinality.ONE_TO_MANY",
        "policy = pz.MaxQuality()",
        "records, execution_stats = pz.Execute(dataset, policy=policy)",
    ):
        assert stage in e6["code"]
    assert e6["reexecuted_names"] == e6["names"]
    assert e6["notebook"]["nbformat"] == 4
    assert any(c["cell_type"] == "code" for c in e6["notebook"]["cells"])


def test_e7_deal_terms_extracted(e7):
    assert "Harbor Holdings LLC" in e7["buyers"]
    assert any("million" in value for value in e7["deal_values"])


def test_e12_chunking_only_for_small_window(e12):
    assert "ChunkedConvert" in e12["small_window.plan"]
    assert "ChunkedConvert" not in e12["large_window.plan"]


# --- measurement: one session fixture per experiment ----------------------


def clinical_pipeline(source, name="ClinicalData", description=(
        "A schema for extracting clinical data datasets from papers."),
        fields=CLINICAL_FIELDS):
    """Fig. 6's logical plan: filter on colorectal cancer, then extract
    every public dataset a paper uses (one-to-many)."""
    schema = pz.make_schema(name, description, fields)
    return (
        pz.Dataset(source)
        .filter(PAPERS_PREDICATE)
        .convert(schema, cardinality=pz.Cardinality.ONE_TO_MANY)
    )


def summarize(records, stats, source) -> dict:
    """One run's row: records, cost, time, extraction F1 and plan."""
    card = extraction_quality(
        records, list(source), ["name", "description", "url"]
    )
    return {
        "records": len(records),
        "cost_usd": round(stats.total_cost_usd, 4),
        "time_s": round(stats.total_time_seconds, 1),
        "f1": round(card.f1, 3),
        "plan": stats.plan_stats.plan_describe,
    }


def prefixed(prefix: str, row: dict) -> dict:
    return {f"{prefix}.{key}": value for key, value in row.items()}


def register_sigmod_demo(papers_dir) -> None:
    register_datasource(
        DirectorySource(papers_dir, dataset_id="sigmod-demo"), overwrite=True
    )


@pytest.fixture(scope="session")
def papers(papers_dir):
    return DirectorySource(papers_dir, dataset_id="paper-claims")


@pytest.fixture(scope="session")
def fig6_pipeline(papers):
    return clinical_pipeline(papers)


@pytest.fixture(scope="session")
def fig5_run(fig6_pipeline):
    """The Fig. 5 run: Fig. 6's plan over 11 papers under MaxQuality."""
    return pz.Execute(fig6_pipeline, policy=pz.MaxQuality())


@pytest.fixture(scope="session")
def e1(fig5_run, papers):
    records, stats = fig5_run
    e = summarize(records, stats, papers)
    e["urls_valid"] = sum(
        1 for r in records if r.url and r.url.startswith("http")
    )
    e["plans_considered"] = stats.plans_considered
    operators = stats.plan_stats.operator_stats
    for role, op in zip(("scan", "filter", "convert"), operators):
        e.update(prefixed(role, {
            "records_in": op.records_in,
            "records_out": op.records_out,
            "time_s": round(op.time_seconds, 1),
            "cost_usd": round(op.cost_usd, 4),
            "llm_calls": op.llm_calls,
            "input_tokens": op.input_tokens,
        }))
    return e


@pytest.fixture(scope="session")
def e2(fig5_run, fig6_pipeline, papers, tmp_path_factory):
    e = prefixed("max_quality", summarize(*fig5_run, papers))
    for name, policy in (
        ("min_cost", pz.MinCost()),
        ("min_time", pz.MinTime()),
        ("cost_cap", pz.MaxQualityAtFixedCost(0.05)),
        ("time_cap", pz.MaxQualityAtFixedTime(60.0)),
    ):
        run = pz.Execute(fig6_pipeline, policy=policy)
        e.update(prefixed(name, summarize(*run, papers)))
    # A harder corpus (ambiguity 0.6), where cheap plans visibly lose.
    hard = DirectorySource(generate_paper_corpus(
        tmp_path_factory.mktemp("hard-papers"), n_papers=20, n_relevant=14,
        n_with_datasets=10, difficulty=0.6, seed=5,
    ), dataset_id="hard-papers")
    pipeline = clinical_pipeline(
        hard, "ClinicalDataHard", "Datasets from papers.",
        {"name": "The dataset name", "description": "A short description",
         "url": "The public URL"},
    )
    for name, policy in (("max_quality", pz.MaxQuality()),
                         ("min_cost", pz.MinCost())):
        run = pz.Execute(pipeline, policy=policy)
        e.update(prefixed(f"hard.{name}", summarize(*run, hard)))
    return e


def semantic_chain(source, length: int):
    """``length`` semantic operators alternating filter and convert."""
    dataset = pz.Dataset(source)
    for index in range(length):
        if index % 2 == 0:
            dataset = dataset.filter(f"condition number {index}")
        else:
            dataset = dataset.convert(pz.make_schema(
                f"Step{index}", "step", {f"value{index}": "the value"}
            ))
    return dataset


@pytest.fixture(scope="session")
def e3():
    source = MemorySource(
        [f"document {i} with some text" for i in range(10)],
        dataset_id="plan-space", schema=TextFile,
    )
    registry = default_registry()
    e = {
        "chat_models": len(registry.chat_models()),
        "embedding_models": len(registry.embedding_models()),
    }
    for name, length in (("filter", 1), ("filter_convert", 2),
                         ("filter_convert_filter", 3)):
        e[f"plans.{name}"] = plan_space_size(
            semantic_chain(source, length).logical_plan(), registry, source
        )
    logical = semantic_chain(source, 2).logical_plan()
    for n in (2, 4, 8):
        cards = [
            ModelCard(name=f"model-{i}", provider="claims",
                      usd_per_1m_input=0.1 * (i + 1),
                      usd_per_1m_output=0.4 * (i + 1),
                      quality=0.5 + 0.04 * i)
            for i in range(n)
        ]
        e[f"plans.{n}_models"] = plan_space_size(
            logical, ModelRegistry(cards), source,
            include_embedding_filter=False,
        )
    candidates = enumerate_plans(
        logical, source, registry, CostModel(source.profile())
    )
    e["enumerated"] = len(candidates)
    e["estimates"] = [c.estimate for c in candidates]
    return e


@pytest.fixture(scope="session")
def e4(papers_dir):
    register_sigmod_demo(papers_dir)
    session = PalimpChatSession()
    turns = [session.chat(message) for message in (
        "Load the papers from the sigmod-demo dataset",
        "I am interested in papers that are about colorectal cancer, and I "
        "would like to extract the dataset name, description and url for "
        "any public dataset used by the study",
        "Maximize quality and run the pipeline",
        "How much did the LLM invocations cost?",
    )]
    # Beaker-style restore: rewind a second session to its first turn.
    rewound = PalimpChatSession()
    first = rewound.chat("Load the papers from the sigmod-demo dataset")
    rewound.chat("Keep only the papers about colorectal cancer")
    depth_before = len(rewound.workspace.current.logical_plan())
    rewound.restore(first.snapshot_index)
    return {
        "tool_sequences": [turn.tool_sequence for turn in turns],
        "records": len(session.last_run.records),
        "agent_cost_usd": round(session.agent_cost_usd(), 4),
        "plan_depths": (
            depth_before, len(rewound.workspace.current.logical_plan())
        ),
    }


@pytest.fixture(scope="session")
def e5(papers_dir):
    session = PalimpChatSession()
    reply = session.chat(f'Load the papers from "{papers_dir}"')
    source = DirectorySource(papers_dir, dataset_id="registration")
    records = list(source)
    return {
        "reply": reply,
        "schema": session.workspace.current.schema,
        "files": len(list(papers_dir.glob("*.pdf"))),
        "declared": len(source),
        "records": len(records),
        "min_text_chars": min(len(r.text_contents) for r in records),
        "min_pages": min(r.page_count for r in records),
    }


@pytest.fixture(scope="session")
def e6(papers_dir, tmp_path_factory):
    register_sigmod_demo(papers_dir)
    session = PalimpChatSession()
    session.chat("Load the papers from the sigmod-demo dataset")
    session.chat(
        "Keep only the papers about colorectal cancer and extract whatever "
        "public dataset is used by the study"
    )
    session.chat("Maximize quality and run the pipeline")
    namespace = exec_program(session.generated_code())
    notebook = session.export_notebook(
        tmp_path_factory.mktemp("notebook") / "session.ipynb"
    )
    return {
        "code": session.generated_code(),
        "records": len(session.last_run.records),
        "reexecuted_records": namespace["execution_stats"].records_out,
        "names": sorted(r["name"] for r in session.last_run.records),
        "reexecuted_names": sorted(r.name for r in namespace["records"]),
        "notebook": json.loads(notebook.read_text()),
    }


@pytest.fixture(scope="session")
def e7(legal_dir):
    source = DirectorySource(legal_dir, dataset_id="legal")
    contract = pz.make_schema(
        "Contract", "Deal terms from responsive documents.", CONTRACT_FIELDS
    )
    records, stats = pz.Execute(
        pz.Dataset(source).filter(LEGAL_PREDICATE).convert(contract),
        policy=pz.MaxQuality(),
    )
    e = {
        "records": len(records),
        "cost_usd": round(stats.total_cost_usd, 4),
        "time_s": round(stats.total_time_seconds, 1),
        "plan": stats.plan_stats.plan_describe,
        "buyers": {r.buyer for r in records if r.buyer},
        "deal_values": [str(r.deal_value) for r in records if r.deal_value],
    }
    for name, policy in (("max_quality", pz.MaxQuality()),
                         ("min_cost", pz.MinCost())):
        kept, filter_stats = pz.Execute(
            pz.Dataset(source).filter(LEGAL_PREDICATE), policy=policy
        )
        card = filter_quality(kept, list(source), LEGAL_PREDICATE)
        e[f"{name}.filter_f1"] = round(card.f1, 3)
        e[f"{name}.filter_cost_usd"] = round(filter_stats.total_cost_usd, 4)
    return e


@pytest.fixture(scope="session")
def e8(realestate_dir):
    source = DirectorySource(realestate_dir, dataset_id="realestate")

    def listing(name):
        return pz.make_schema(name, "A structured listing.", LISTING_FIELDS)

    [average], stats = pz.Execute(
        pz.Dataset(source).filter(REALESTATE_PREDICATE)
        .convert(listing("Listing")).average("price"),
        policy=pz.MaxQuality(),
    )
    by_city, _ = pz.Execute(
        pz.Dataset(source).convert(listing("Listing2"))
        .groupby(["city"], [("count", None), ("avg", "price")]),
        policy=pz.MaxQuality(),
    )
    retrieved, _ = pz.Execute(pz.Dataset(source).retrieve(
        "waterfront home with a private dock", k=5
    ))
    return {
        "waterfront_listings": stats.plan_stats.operator_stats[1].records_out,
        "average_price": round(average.average_price),
        "cost_usd": round(stats.total_cost_usd, 4),
        "time_s": round(stats.total_time_seconds, 1),
        "cities": len(by_city),
        "listings": int(sum(r.count for r in by_city)),
        "retrieved": len(retrieved),
        "retrieved_waterfront": sum(
            1 for r in retrieved if global_oracle().predicate_truth(
                r.document_text(), REALESTATE_PREDICATE)
        ),
    }


@pytest.fixture(scope="session")
def e9(fig6_pipeline, papers):
    registry = default_registry()
    e = {}
    for name, kwargs in (
        ("budget", {"policy": pz.MaxQualityAtFixedCost(0.08)}),
        ("gpt_4o", {"models": ModelRegistry(
            [registry.get("gpt-4o")] + registry.embedding_models())}),
        ("llama_3_8b", {"models": ModelRegistry(
            [registry.get("llama-3-8b")] + registry.embedding_models())}),
    ):
        run = pz.Execute(fig6_pipeline, **{"policy": pz.MaxQuality(),
                                           **kwargs})
        e.update(prefixed(name, summarize(*run, papers)))
    logical = fig6_pipeline.logical_plan()
    naive = Optimizer(pz.MinCost()).optimize(logical, papers)
    sampled = Optimizer(pz.MinCost(), sample_size=3).optimize(logical, papers)
    scored = Optimizer(pz.MaxQuality(), sample_size=5).optimize(
        logical, papers
    )
    shrunk = Optimizer(
        pz.MinCost(), include_token_reduction=False,
        include_code_synthesis=False, include_embedding_filter=False,
    ).optimize(logical, papers)
    scored_plans = [c for c in scored.candidates if c.estimate.from_sample]
    e.update({
        "sentinel.from_sample": (naive.chosen.estimate.from_sample,
                                 sampled.chosen.estimate.from_sample),
        "sentinel.runs": sampled.sentinel_runs,
        "sentinel.cost_usd": round(sampled.sentinel_cost_usd, 4),
        "sentinel.naive_quality": round(naive.chosen.estimate.quality, 3),
        "sentinel.sampled_quality": round(sampled.chosen.estimate.quality, 3),
        "sentinel.scored_plans": len(scored_plans),
        "sentinel.scored_qualities": [c.estimate.quality
                                      for c in scored_plans],
        "sentinel.chosen_quality": scored.chosen.estimate.quality,
        "space.full": naive.plans_considered,
        "space.shrunk": shrunk.plans_considered,
        "space.full_min_cost": round(naive.chosen.estimate.cost_usd, 4),
        "space.shrunk_min_cost": round(shrunk.chosen.estimate.cost_usd, 4),
    })
    return e


@pytest.fixture(scope="session")
def e10(tmp_path_factory):
    directories = {
        size: generate_paper_corpus(
            tmp_path_factory.mktemp(f"scale-{size}"), n_papers=size,
            n_relevant=int(size * 0.7), n_with_datasets=int(size * 0.5),
        )
        for size in (10, 40, 120)
    }

    def run(size, workers=1):
        source = DirectorySource(directories[size], dataset_id=f"scale-{size}")
        return pz.Execute(
            clinical_pipeline(source, f"Clinical{size}", "Clinical datasets."),
            policy=pz.MaxQuality(), max_workers=workers,
        )

    runs = {(size, 1): run(size) for size in directories}
    runs.update({(40, workers): run(40, workers) for workers in (4, 8)})
    e = {}
    for size in directories:
        stats = runs[size, 1][1]
        e[f"cost_usd.{size}"] = round(stats.total_cost_usd, 3)
        e[f"time_s.{size}"] = round(stats.total_time_seconds, 1)
    serial = runs[40, 1][1].total_time_seconds
    for workers in (4, 8):
        stats = runs[40, workers][1]
        e.update(prefixed(f"workers_{workers}", {
            "time_s": round(stats.total_time_seconds, 1),
            "speedup": round(serial / stats.total_time_seconds, 2),
            "cost_usd": round(stats.total_cost_usd, 3),
        }))
    e["record_sets"] = len({
        tuple(sorted(r.name for r in records))
        for (size, _), (records, _) in runs.items() if size == 40
    })
    return e


@pytest.fixture(scope="session")
def e11(fig6_pipeline):
    cache = CallCache()
    cold_records, cold = pz.Execute(
        fig6_pipeline, policy=pz.MaxQuality(), cache=cache
    )
    warm_records, warm = pz.Execute(
        fig6_pipeline, policy=pz.MaxQuality(), cache=cache
    )
    return {
        "cold.cost_usd": round(cold.total_cost_usd, 4),
        "cold.time_s": round(cold.total_time_seconds, 1),
        "cold.cache_lookups": cold.cache_hits + cold.cache_misses,
        "cold.cache_hits": cold.cache_hits,
        "warm.cost_usd": round(warm.total_cost_usd, 4),
        "warm.time_s": round(warm.total_time_seconds, 1),
        "warm.records": len(warm_records),
        "warm.identical": ([r.to_json() for r in warm_records]
                           == [r.to_json() for r in cold_records]),
        "hit_rate": round(cache.stats.hit_rate, 3),
    }


@pytest.fixture(scope="session")
def e12():
    """~2,000-token documents with a URL early and an e-mail late."""
    documents = MemorySource([
        f"Report {i}. " + "filler prose segment " * 150
        + f" The data portal is https://portal{i}.example.org. "
        + "more filler content " * 150
        + f" Contact owner{i}@example.org with questions. "
        + "trailing notes " * 80
        for i in range(6)
    ], dataset_id="long-docs", schema=TextFile)
    info = pz.make_schema(
        "Info", "Key facts.",
        {"url": "The URL mentioned", "email": "The contact e-mail"},
    )
    small_window = ModelCard(
        name="small-window-model", provider="claims",
        usd_per_1m_input=0.2, usd_per_1m_output=0.4,
        quality=1.0, context_window=400,
    )
    e = {}
    for name, models in (
        ("small_window", ModelRegistry(
            [small_window] + default_registry().embedding_models())),
        ("large_window", None),
    ):
        records, stats = pz.Execute(
            pz.Dataset(documents).convert(info), policy=pz.MaxQuality(),
            models=models,
        )
        e.update(prefixed(name, {
            "records": len(records),
            "llm_calls": stats.plan_stats.operator_stats[-1].llm_calls,
            "urls": sum(1 for r in records
                        if r.url and r.url.startswith("http")),
            "emails": sum(1 for r in records if r.email and "@" in r.email),
            "plan": stats.plan_stats.plan_describe,
        }))
    return e


@pytest.fixture(scope="session")
def e13():
    """Six reports joined to a ten-entry catalog; report i cites entry i."""
    predicate = "the report cites the catalog entry"
    lefts = [f"Report {i} analyzes outcomes using the Registry-{i} "
             f"collection series {i} as its data source." for i in range(6)]
    rights = [f"Catalog entry {i}: the Registry-{i} collection with "
              f"specimen records series {i}." for i in range(10)]
    for li, left in enumerate(lefts):
        for ri, right in enumerate(rights):
            global_oracle().register(
                f"LEFT RECORD:\n{left}\n\nRIGHT RECORD:\n{right}",
                DocumentTruth(predicates={predicate: li == ri},
                              difficulty=0.0),
            )
    left = MemorySource(lefts, dataset_id="join-left", schema=TextFile)
    right = MemorySource(rights, dataset_id="join-right", schema=TextFile)
    logical = pz.Dataset(left).join(
        pz.Dataset(right), predicate=predicate
    ).logical_plan()
    registry = default_registry()
    model = registry.get("gpt-4o")
    e = {"lefts": len(lefts), "rights": len(rights)}
    for name, join in (
        ("full", LLMSemanticJoin(logical.operators[-1], model)),
        ("blocked", EmbeddingBlockedJoin(
            logical.operators[-1], model, registry.embedding_models()[0])),
    ):
        records, stats = SequentialExecutor().execute(
            PhysicalPlan([MarshalAndScan(logical.scan, left), join])
        )
        e.update(prefixed(name, {
            "llm_calls": stats.operator_stats[-1].llm_calls,
            "cost_usd": round(stats.total_cost_usd, 4),
            "matches": len(records),
        }))
    return e
