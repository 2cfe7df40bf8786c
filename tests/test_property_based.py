"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.templating import render_template, template_variables
from repro.core.fakepdf import parse_fake_pdf, write_fake_pdf
from repro.core.records import DataRecord
from repro.core.schemas import make_schema, schema_signature
from repro.llm.clock import VirtualClock
from repro.llm.embeddings import cosine_similarity, embed_text
from repro.llm.models import ModelCard
from repro.llm.oracle import fingerprint_text
from repro.llm.quality import decide_correct, error_probability
from repro.llm.tokenizer import count_tokens, truncate_to_tokens
from repro.optimizer.cost_model import PlanEstimate
from repro.optimizer.planner import PlanCandidate, pareto_frontier

text_strategy = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!?-\n",
    max_size=500,
)

identifier_strategy = st.from_regex(
    r"[a-z][a-z0-9_]{0,10}", fullmatch=True
).filter(lambda s: not s.endswith("_") and "__" not in s)


class TestTokenizerProperties:
    @given(text_strategy)
    def test_count_non_negative(self, text):
        assert count_tokens(text) >= 0

    @given(text_strategy, text_strategy)
    def test_concatenation_superadditive_within_bounds(self, a, b):
        # Concatenation can merge tokens at the seam but never exceeds
        # the sum by more than the merged-word bonus.
        combined = count_tokens(a + " " + b)
        assert combined <= count_tokens(a) + count_tokens(b) + 1

    @given(text_strategy, st.integers(min_value=0, max_value=200))
    def test_truncate_respects_budget(self, text, budget):
        truncated = truncate_to_tokens(text, budget)
        assert count_tokens(truncated) <= budget
        assert text.startswith(truncated)


class TestFingerprintProperties:
    @given(text_strategy)
    def test_whitespace_normal_form(self, text):
        squeezed = " ".join(text.split())
        assert fingerprint_text(text) == fingerprint_text(squeezed)

    @given(text_strategy)
    def test_fixed_length(self, text):
        assert len(fingerprint_text(text)) == 24


class TestFakePDFProperties:
    @given(
        st.text(
            alphabet=string.printable.replace("\r", "").replace("\x0b", "")
            .replace("\x0c", ""),
            max_size=2000,
        )
    )
    @settings(max_examples=50)
    def test_roundtrip_preserves_words(self, text):
        document = parse_fake_pdf(write_fake_pdf(text))
        assert document.text.split() == text.split()

    @given(st.dictionaries(
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
        st.text(alphabet=string.ascii_letters + " ", max_size=20),
        max_size=5,
    ))
    def test_metadata_roundtrip(self, metadata):
        document = parse_fake_pdf(write_fake_pdf("body", metadata))
        assert document.metadata == metadata


class TestTemplateProperties:
    @given(st.dictionaries(
        identifier_strategy,
        st.text(alphabet=string.ascii_letters + " ", max_size=30),
        min_size=1, max_size=5,
    ))
    def test_all_variables_substituted(self, variables):
        template = " ".join("{{ %s }}" % name for name in variables)
        rendered = render_template(template, variables)
        assert "{{" not in rendered
        for value in variables.values():
            assert value in rendered

    @given(identifier_strategy)
    def test_template_variables_detects_roots(self, name):
        assert template_variables("{{ %s }}" % name) == [name]


class TestEmbeddingProperties:
    @given(text_strategy)
    @settings(max_examples=50)
    def test_norm_at_most_one(self, text):
        import numpy as np

        norm = np.linalg.norm(embed_text(text))
        assert norm == pytest.approx(1.0) or norm == 0.0

    @given(text_strategy, text_strategy)
    @settings(max_examples=50)
    def test_cosine_bounded_and_symmetric(self, a, b):
        va, vb = embed_text(a), embed_text(b)
        sim_ab = cosine_similarity(va, vb)
        assert -1.0001 <= sim_ab <= 1.0001
        assert sim_ab == pytest.approx(cosine_similarity(vb, va))


class TestClockProperties:
    @given(st.lists(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        max_size=30,
    ), st.integers(min_value=1, max_value=8))
    def test_makespan_bounds(self, durations, lanes):
        clock = VirtualClock(lanes=lanes)
        for duration in durations:
            clock.pick_least_busy_lane()
            clock.advance(duration)
        total = sum(durations)
        longest = max(durations) if durations else 0.0
        # Classic list-scheduling bounds.
        assert clock.elapsed <= total + 1e-9
        assert clock.elapsed >= max(total / lanes, longest) - 1e-9
        assert clock.total_busy == pytest.approx(total)


class TestQualityProperties:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_error_probability_in_range(self, quality, difficulty, fraction):
        card = ModelCard(
            name="m", provider="t", usd_per_1m_input=1.0,
            usd_per_1m_output=1.0, quality=quality,
        )
        p = error_probability(card, difficulty, fraction)
        assert 0.0 <= p <= 0.95

    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_decide_correct_deterministic(self, fingerprint, task):
        card = ModelCard(
            name="m", provider="t", usd_per_1m_input=1.0,
            usd_per_1m_output=1.0, quality=0.5,
        )
        first = decide_correct(card, fingerprint, task, 0.5)
        second = decide_correct(card, fingerprint, task, 0.5)
        assert first == second


class TestSchemaProperties:
    @given(st.dictionaries(
        identifier_strategy,
        st.text(alphabet=string.ascii_letters + " ", min_size=1,
                max_size=30),
        min_size=1, max_size=6,
    ))
    def test_make_schema_roundtrip(self, fields):
        schema = make_schema("Generated", "A generated schema", fields)
        assert set(schema.field_names()) == set(fields)
        for name, desc in fields.items():
            assert schema.field_desc(name) == desc
        # Signature is deterministic for the same shape.
        again = make_schema("Generated", "A generated schema", fields)
        assert schema_signature(schema) == schema_signature(again)

    @given(st.dictionaries(
        identifier_strategy,
        st.text(alphabet=string.ascii_letters + " ", max_size=20),
        min_size=1, max_size=4,
    ))
    def test_record_roundtrip(self, values):
        schema = make_schema(
            "R", "d", {name: f"field {name}" for name in values}
        )
        record = DataRecord.from_dict(schema, values)
        assert record.to_dict() == values


class TestParetoProperties:
    estimates = st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )

    @staticmethod
    def _candidates(points):
        return [
            PlanCandidate(
                plan=None,
                estimate=PlanEstimate(
                    plan=None, cost_usd=c, time_seconds=t, quality=q,
                    output_cardinality=1.0,
                ),
            )
            for c, t, q in points
        ]

    @given(st.lists(estimates, min_size=1, max_size=30))
    def test_frontier_nonempty_and_subset(self, points):
        candidates = self._candidates(points)
        frontier = pareto_frontier(candidates)
        assert 0 < len(frontier) <= len(candidates)
        assert all(c in candidates for c in frontier)

    @given(st.lists(estimates, min_size=1, max_size=30))
    def test_extremes_survive(self, points):
        candidates = self._candidates(points)
        frontier = pareto_frontier(candidates)
        frontier_costs = [c.estimate.cost_usd for c in frontier]
        frontier_quality = [c.estimate.quality for c in frontier]
        assert min(frontier_costs) == min(
            c.estimate.cost_usd for c in candidates
        )
        assert max(frontier_quality) == max(
            c.estimate.quality for c in candidates
        )

    @given(st.lists(estimates, min_size=1, max_size=20))
    def test_no_internal_domination(self, points):
        from repro.optimizer.planner import _dominates

        frontier = pareto_frontier(self._candidates(points))
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not _dominates(a.estimate, b.estimate)


class TestCacheProperties:
    @given(
        st.text(min_size=1, max_size=10),
        st.text(min_size=1, max_size=10),
        st.text(min_size=1, max_size=10),
    )
    def test_store_then_lookup_roundtrips(self, model, task, fingerprint):
        from repro.llm.cache import CallCache

        cache = CallCache()
        key = CallCache.make_key(model, "judge", task, fingerprint)
        cache.store(key, ("payload", task))
        hit, value = cache.lookup(key)
        assert hit and value == ("payload", task)

    @given(st.lists(st.text(min_size=1, max_size=6), min_size=1,
                    max_size=30, unique=True),
           st.integers(min_value=1, max_value=10))
    def test_bounded_cache_never_exceeds_capacity(self, tasks, capacity):
        from repro.llm.cache import CallCache

        cache = CallCache(max_entries=capacity)
        for task in tasks:
            cache.store(CallCache.make_key("m", "judge", task, "fp"), 1)
        assert len(cache) <= capacity


class TestPromptAdditivity:
    """A prompt's token count is the sum over its pieces, whatever the
    pieces say — the contract that lets the client count a prompt it never
    builds (``llm/prompts.py``)."""

    #: Dense in what could glue tokens across a joint: no spaces at the
    #: ends, underscore runs, non-ASCII letters, bare newlines.
    piece = st.text(
        alphabet=st.sampled_from(list("abcXYZ019__ \n\t.,:;-!?{}[]\"'é漢")),
        max_size=120,
    )
    fields = st.dictionaries(
        st.text(alphabet="abc_XY09", min_size=1, max_size=8), piece,
        min_size=1, max_size=4,
    )

    @staticmethod
    def _sum(*pieces):
        return sum(count_tokens(piece) for piece in pieces)

    @given(piece, piece)
    @settings(max_examples=150, deadline=None)
    def test_filter_prompt(self, predicate, document):
        from repro.llm.prompts import build_filter_prompt, filter_prompt_parts

        prefix, suffix = filter_prompt_parts(predicate)
        whole = build_filter_prompt(predicate, document)
        assert prefix + document + suffix == whole
        assert self._sum(prefix, document, suffix) == count_tokens(whole)

    @given(fields, piece, piece, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_extract_prompt(self, fields, schema_description, document,
                            one_to_many):
        from repro.llm.prompts import (
            build_extract_prompt,
            extract_prompt_parts,
        )

        prefix, suffix = extract_prompt_parts(
            fields, schema_description, one_to_many=one_to_many
        )
        whole = build_extract_prompt(
            fields, document, schema_description, one_to_many=one_to_many
        )
        assert prefix + document + suffix == whole
        assert self._sum(prefix, document, suffix) == count_tokens(whole)

    @given(piece, piece, piece, piece)
    @settings(max_examples=150, deadline=None)
    def test_agent_prompt(self, system, tools_block, scratchpad, message):
        from repro.llm.prompts import agent_prompt_parts, build_agent_prompt

        preamble, rest = agent_prompt_parts(
            system, tools_block, scratchpad, message
        )
        whole = build_agent_prompt(system, tools_block, scratchpad, message)
        assert preamble + rest == whole
        assert preamble[-1].isspace()
        assert self._sum(preamble, rest) == count_tokens(whole)

    @given(piece.filter(str.strip), fields, piece, st.booleans(),
           st.sampled_from([1.0, 0.7, 0.3]))
    @settings(max_examples=100, deadline=None)
    def test_client_charges_the_whole_prompt(self, predicate, fields,
                                             document, one_to_many, fraction):
        """What ``judge``/``extract`` meter is the count of the prompt the
        spec builds around the *visible* (possibly truncated) document."""
        from repro.llm.client import (
            BooleanRequest,
            ExtractionRequest,
            SimulatedLLMClient,
        )
        from repro.llm.oracle import GroundTruthRegistry
        from repro.llm.prompts import build_extract_prompt, build_filter_prompt

        client = SimulatedLLMClient("gpt-4o", oracle=GroundTruthRegistry())
        visible = client._apply_context_fraction(document, fraction)
        judged = client.judge(BooleanRequest(
            predicate, document, context_fraction=fraction))
        assert judged.usage.input_tokens == count_tokens(
            build_filter_prompt(predicate, visible))
        extracted = client.extract(ExtractionRequest(
            fields, document, "a schema", one_to_many=one_to_many,
            context_fraction=fraction))
        assert extracted.usage.input_tokens == count_tokens(
            build_extract_prompt(fields, visible, "a schema",
                                 one_to_many=one_to_many))
