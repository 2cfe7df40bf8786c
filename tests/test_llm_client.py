"""The simulated LLM client: judgments, extraction, metering."""

import dataclasses

import pytest

from repro.llm.client import (
    BooleanRequest,
    CompletionRequest,
    ExtractionRequest,
    SimulatedLLMClient,
)
from repro.llm.clock import VirtualClock
from repro.llm.exceptions import ContextWindowExceeded, InvalidRequestError
from repro.llm.models import ModelCard, get_model
from repro.llm.oracle import DocumentTruth, GroundTruthRegistry
from repro.llm.usage import UsageLedger

DOC = (
    "This report analyzes colorectal cancer outcomes. "
    "The CRC-Atlas dataset is publicly available at "
    "https://data.example.org/crc."
)


@pytest.fixture()
def oracle():
    reg = GroundTruthRegistry()
    reg.register(
        DOC,
        DocumentTruth(
            predicates={"about colorectal cancer": True},
            fields={
                "name": "CRC-Atlas",
                "url": "https://data.example.org/crc",
                "__instances__": [
                    {"name": "CRC-Atlas",
                     "url": "https://data.example.org/crc"},
                ],
            },
            difficulty=0.0,
        ),
    )
    return reg


@pytest.fixture()
def client(oracle):
    return SimulatedLLMClient(
        "gpt-4o",
        clock=VirtualClock(),
        ledger=UsageLedger(),
        oracle=oracle,
    )


class TestJudge:
    def test_oracle_truth_respected(self, client):
        response = client.judge(
            BooleanRequest(predicate="about colorectal cancer", document=DOC)
        )
        assert response.value is True

    def test_heuristic_fallback_for_unknown_docs(self, client):
        response = client.judge(
            BooleanRequest(
                predicate="about pasta recipes",
                document="A guide to carbonara and cacio e pepe.",
            )
        )
        assert response.value is False

    def test_empty_predicate_rejected(self, client):
        with pytest.raises(InvalidRequestError):
            client.judge(BooleanRequest(predicate="  ", document=DOC))

    def test_usage_metered(self, client):
        client.judge(
            BooleanRequest(predicate="about colorectal cancer", document=DOC)
        )
        assert len(client.ledger) == 1
        usage = client.ledger.records[0]
        assert usage.input_tokens > 0
        assert usage.cost_usd > 0
        assert client.clock.elapsed == pytest.approx(usage.latency_seconds)

    def test_deterministic_across_calls(self, client):
        req = BooleanRequest(predicate="about colorectal cancer", document=DOC)
        assert client.judge(req).value == client.judge(req).value


class TestExtract:
    def test_single_extraction_from_oracle(self, client):
        response = client.extract(
            ExtractionRequest(
                fields={"name": "dataset name", "url": "dataset URL"},
                document=DOC,
            )
        )
        assert response.value["name"] == "CRC-Atlas"
        assert response.value["url"] == "https://data.example.org/crc"

    def test_one_to_many_returns_instances(self, client):
        response = client.extract(
            ExtractionRequest(
                fields={"name": "dataset name", "url": "dataset URL"},
                document=DOC,
                one_to_many=True,
            )
        )
        assert isinstance(response.value, list)
        assert response.value[0]["name"] == "CRC-Atlas"

    def test_heuristic_fallback_extraction(self, client):
        response = client.extract(
            ExtractionRequest(
                fields={"url": "The public URL"},
                document="See https://example.com/page for details.",
            )
        )
        assert response.value["url"] == "https://example.com/page"

    def test_empty_fields_rejected(self, client):
        with pytest.raises(InvalidRequestError):
            client.extract(ExtractionRequest(fields={}, document=DOC))

    def test_context_fraction_reduces_cost(self, oracle):
        full = SimulatedLLMClient("gpt-4o", ledger=UsageLedger(), oracle=oracle)
        reduced = SimulatedLLMClient(
            "gpt-4o", ledger=UsageLedger(), oracle=oracle
        )
        long_doc = DOC + " filler" * 500
        full.extract(
            ExtractionRequest(fields={"name": "n"}, document=long_doc)
        )
        reduced.extract(
            ExtractionRequest(
                fields={"name": "n"}, document=long_doc, context_fraction=0.2
            )
        )
        assert (
            reduced.ledger.total().input_tokens
            < full.ledger.total().input_tokens
        )

    def test_weak_model_corrupts_some_answers(self, oracle):
        weak_card = ModelCard(
            name="weak", provider="t", usd_per_1m_input=0.1,
            usd_per_1m_output=0.1, quality=0.05,
        )
        client = SimulatedLLMClient(weak_card, oracle=oracle)
        wrong = 0
        for i in range(30):
            doc = DOC + f" variant {i}"
            oracle.register(
                doc,
                DocumentTruth(fields={"name": "CRC-Atlas"}, difficulty=0.9),
            )
            response = client.extract(
                ExtractionRequest(fields={"name": "dataset name"}, document=doc)
            )
            if response.value["name"] != "CRC-Atlas":
                wrong += 1
        assert wrong > 5


class TestComplete:
    def test_completion_meters_tokens(self, client):
        response = client.complete(
            CompletionRequest(prompt="Summarize: the cat sat on the mat.")
        )
        assert response.usage.input_tokens > 0

    def test_empty_prompt_rejected(self, client):
        with pytest.raises(InvalidRequestError):
            client.complete(CompletionRequest(prompt=""))


class TestLimits:
    def test_context_window_enforced(self, oracle):
        tiny = ModelCard(
            name="tiny", provider="t", usd_per_1m_input=1.0,
            usd_per_1m_output=1.0, quality=0.5, context_window=16,
        )
        client = SimulatedLLMClient(tiny, oracle=oracle)
        with pytest.raises(ContextWindowExceeded):
            client.judge(
                BooleanRequest(predicate="long", document="word " * 100)
            )

    def test_model_resolution_by_name(self):
        client = SimulatedLLMClient("gpt-4o-mini")
        assert client.model.name == "gpt-4o-mini"

    def test_unknown_model_name_raises(self):
        with pytest.raises(KeyError):
            SimulatedLLMClient("no-such-model")


# ----------------------------------------------------------------------
# One priced-call path: a request alone is a batch of one.  (That the
# input count reached piece by piece is the whole prompt's is fuzzed in
# test_property_based.py::TestPromptAdditivity.)
# ----------------------------------------------------------------------

REQUESTS = [
    BooleanRequest(predicate="about colorectal cancer", document=DOC),
    BooleanRequest(predicate="About Colorectal Cancer", document=DOC + " x",
                   context_fraction=0.5),
    ExtractionRequest(fields={"name": "dataset name", "url": "dataset URL"},
                      document=DOC, schema_description="public datasets"),
    ExtractionRequest(fields={"name": "dataset name"}, document=DOC,
                      one_to_many=True, context_fraction=0.6),
]


def _wired(oracle, **extra):
    return SimulatedLLMClient("gpt-4o", clock=VirtualClock(),
                              ledger=UsageLedger(), oracle=oracle, **extra)


def _alone(client, request):
    if isinstance(request, BooleanRequest):
        return client.judge(request)
    return client.extract(request)


def _same_response(a, b):
    assert (a.value, a.text, a.model) == (b.value, b.text, b.model)
    assert dataclasses.asdict(a.usage) == dataclasses.asdict(b.usage)


@pytest.mark.parametrize("request_", REQUESTS)
class TestBatchOfOne:
    def test_fresh_call(self, oracle, request_):
        _same_response(_alone(_wired(oracle), request_),
                       _wired(oracle).run_batch([request_])[0])

    def test_call_cache_hit(self, oracle, request_):
        from repro.llm.cache import CallCache

        cache = CallCache()
        _alone(_wired(oracle, cache=cache), request_)
        alone = _alone(_wired(oracle, cache=cache), request_)
        batched = _wired(oracle, cache=cache).run_batch([request_])[0]
        assert alone.usage.operation.endswith(":cached")
        _same_response(alone, batched)

    def test_replayed_call(self, oracle, request_):
        from repro.llm.replay import ReplayLog

        capture = ReplayLog()
        fresh = _alone(_wired(oracle, replay=capture), request_)
        logs = [ReplayLog.from_payload(capture.to_payload())
                for _ in range(2)]
        alone = _alone(_wired(oracle, replay=logs[0]), request_)
        batched = _wired(oracle, replay=logs[1]).run_batch([request_])[0]
        assert [log.reused_summary().calls for log in logs] == [1, 1]
        _same_response(alone, batched)
        # ... and a replayed call charges what the fresh one did.
        _same_response(alone, fresh)


class TestBatchAmortizesOnlyOverhead:
    def test_later_requests_differ_by_the_overhead_alone(self, oracle):
        alone = [_alone(_wired(oracle), r) for r in REQUESTS]
        batched = _wired(oracle).run_batch(REQUESTS)
        overhead = get_model("gpt-4o").overhead_seconds
        for index, (a, b) in enumerate(zip(alone, batched)):
            assert (a.value, a.text) == (b.value, b.text)
            assert (a.usage.input_tokens, a.usage.output_tokens,
                    a.usage.cost_usd) == (
                b.usage.input_tokens, b.usage.output_tokens,
                b.usage.cost_usd)
            assert a.usage.latency_seconds - b.usage.latency_seconds == (
                pytest.approx(overhead if index else 0.0))


class TestKeysSayWhatThePromptSays:
    """Cache and replay keys cover the prompt around the document."""

    BASE = ExtractionRequest(
        fields={"name": "dataset name", "url": "dataset URL"},
        document=DOC, schema_description="public datasets",
    )
    EDITS = [
        ExtractionRequest(
            fields={"name": "name of the data set", "url": "dataset URL"},
            document=DOC, schema_description="public datasets"),
        ExtractionRequest(
            fields={"name": "dataset name", "url": "dataset URL"},
            document=DOC, schema_description="datasets a study reuses"),
        ExtractionRequest(
            fields={"name": "dataset name", "url": "dataset URL"},
            document=DOC, schema_description="public datasets",
            one_to_many=True),
    ]

    @pytest.mark.parametrize("edited", EDITS)
    def test_edited_prompt_misses_the_cache(self, oracle, edited):
        from repro.llm.cache import CallCache

        cache = CallCache()
        client = _wired(oracle, cache=cache)
        client.extract(self.BASE)
        response = client.extract(edited)
        assert not response.usage.operation.endswith(":cached")
        assert cache.stats.hits == 0
        assert client.extract(edited).usage.operation.endswith(":cached")

    @pytest.mark.parametrize("edited", EDITS)
    def test_edited_prompt_misses_the_replay_log(self, oracle, edited):
        from repro.llm.replay import ReplayLog

        capture = ReplayLog()
        _wired(oracle, replay=capture).extract(self.BASE)
        log = ReplayLog.from_payload(capture.to_payload())
        client = _wired(oracle, replay=log)
        replayed = client.extract(edited)
        assert log.reused_summary().calls == 0
        _same_response(replayed, _wired(oracle).extract(edited))
        client.extract(self.BASE)
        assert log.reused_summary().calls == 1

    def test_judge_key_is_the_predicate(self, oracle):
        from repro.llm.replay import ReplayLog

        capture = ReplayLog()
        _wired(oracle, replay=capture).judge(REQUESTS[0])
        (row,) = capture.to_payload()
        assert row["key"][1:3] == ["judge", "about colorectal cancer"]


class TestCompletionPreamble:
    PREAMBLE = "You are an agent. Pick a tool.\n\nAvailable tools:\n- a\n\n"
    REST = "Conversation so far:\n\n\nUser: load it\nThought:"

    def test_counts_and_text_equal_the_whole_prompt(self, oracle):
        whole = _wired(oracle).complete(
            CompletionRequest(prompt=self.PREAMBLE + self.REST))
        split = _wired(oracle).complete(
            CompletionRequest(prompt=self.REST, preamble=self.PREAMBLE))
        _same_response(whole, split)
        assert whole.text == "You are an agent."

    def test_preamble_must_end_in_whitespace(self, client):
        with pytest.raises(InvalidRequestError):
            client.complete(CompletionRequest(prompt="b", preamble="a"))
