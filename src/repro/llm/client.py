"""The simulated LLM client.

:class:`SimulatedLLMClient` is the only component the physical operators talk
to.  It exposes three request shapes that cover everything Palimpzest needs:

* :class:`BooleanRequest` — judge a natural-language predicate (semantic
  filter).
* :class:`ExtractionRequest` — populate schema fields from a document
  (semantic convert), optionally one-to-many.
* :class:`CompletionRequest` — free-form completion (the chat agent's
  reasoning steps).

Answers come from the ground-truth oracle when the document is a registered
corpus member, falling back to the heuristic semantic engine otherwise; a
seeded quality-dependent error process then corrupts a model-specific subset
of answers.  Every call is metered: the prompt is actually constructed,
tokens are counted, and cost/latency accrue to the attached ledger/clock.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.llm import prompts, quality, semantics
from repro.llm.cache import CallCache
from repro.llm.clock import VirtualClock
from repro.llm.exceptions import ContextWindowExceeded, InvalidRequestError
from repro.llm.models import ModelCard, ModelRegistry, default_registry
from repro.llm.oracle import GroundTruthRegistry, fingerprint_text, global_oracle
from repro.llm.replay import CallRecord, ReplayLog
from repro.llm.tokenizer import count_tokens, truncate_to_tokens
from repro.llm.usage import LLMUsage, UsageLedger
from repro.obs.trace import NULL_TRACER, SpanKind


@dataclass(frozen=True)
class BooleanRequest:
    """Judge ``predicate`` against ``document``; answer True/False."""

    predicate: str
    document: str
    operation: str = "filter"
    context_fraction: float = 1.0


@dataclass(frozen=True)
class ExtractionRequest:
    """Extract ``fields`` (name -> description) from ``document``."""

    fields: Dict[str, str]
    document: str
    schema_description: str = ""
    one_to_many: bool = False
    operation: str = "convert"
    context_fraction: float = 1.0


@dataclass(frozen=True)
class CompletionRequest:
    """Free-form completion of ``prompt`` (used by the chat agent)."""

    prompt: str
    operation: str = "completion"
    max_output_tokens: int = 512


@dataclass
class LLMResponse:
    """Result of one simulated call.

    ``value`` is the typed answer (bool, dict, list of dicts, or str);
    ``text`` is the serialized completion the model "produced"; ``usage``
    carries the accounting record.
    """

    value: Any
    text: str
    usage: LLMUsage
    model: str


def meter_call(model: ModelCard, input_tokens: int, output_tokens: int,
               operation: str, clock: Optional[VirtualClock],
               ledger: Optional[UsageLedger], tracer,
               amortize_overhead: bool = False) -> LLMUsage:
    """Charge one call of ``model`` with the given token counts.

    Prices it from the model card, advances ``clock`` by its latency,
    records the :class:`LLMUsage` into ``ledger`` (which charges any
    attached budget and may raise ``QuotaExceededError`` — after the
    record landed) and emits the ``llm.call`` leaf span.  The one
    accounting path of a fresh call, a replayed call and a call spliced
    from a base run's journey, which is what keeps the three
    byte-identical.
    """
    cost = model.cost_usd(input_tokens, output_tokens)
    latency = model.latency_seconds(input_tokens, output_tokens)
    if amortize_overhead:
        # Later requests of a batched call ride the connection the first
        # one already paid for; cost (tokens) is unaffected.
        latency -= model.overhead_seconds
    timestamp = clock.advance(latency) if clock is not None else 0.0
    usage = LLMUsage(
        model=model.name,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        cost_usd=cost,
        latency_seconds=latency,
        operation=operation,
        virtual_timestamp=timestamp,
    )
    if ledger is not None:
        ledger.record(usage)
    if tracer.enabled:
        trace_call(tracer, clock, usage, cache_hit=False)
    return usage


def trace_call(tracer, clock: Optional[VirtualClock], usage: LLMUsage,
               cache_hit: bool) -> None:
    """Record the ``llm.call`` leaf span for one metered call."""
    end = usage.virtual_timestamp
    start = max(0.0, end - usage.latency_seconds)
    lane = clock.current_lane if clock is not None else 0
    tracer.record(
        "llm.call", SpanKind.LLM, start, end, lane,
        model=usage.model,
        operation=usage.operation,
        input_tokens=usage.input_tokens,
        output_tokens=usage.output_tokens,
        cache_hit=cache_hit,
    )


class LLMClient:
    """Interface of the simulated client (single implementation below).

    Kept as a separate base class so tests can substitute counting stubs.
    """

    def judge(self, request: BooleanRequest) -> LLMResponse:
        raise NotImplementedError

    def extract(self, request: ExtractionRequest) -> LLMResponse:
        raise NotImplementedError

    def complete(self, request: CompletionRequest) -> LLMResponse:
        raise NotImplementedError

    # -- coroutine API ---------------------------------------------------
    #
    # Awaitable twins for the async executor.  The simulated client answers
    # from a virtual clock, so these complete without ever suspending: the
    # whole call — clock advance, ledger entry, trace span — happens
    # atomically on the awaiting task's thread.  That invariant is what lets
    # thread-local clock-lane and ledger-capture attribution stay correct
    # when many asyncio tasks interleave on one event-loop thread.  A real
    # network client would override these with true awaits and would then
    # need context-local attribution instead.

    async def ajudge(self, request: BooleanRequest) -> LLMResponse:
        return self.judge(request)

    async def aextract(self, request: ExtractionRequest) -> LLMResponse:
        return self.extract(request)

    async def acomplete(self, request: CompletionRequest) -> LLMResponse:
        return self.complete(request)


class SimulatedLLMClient(LLMClient):
    """Deterministic offline LLM client.

    Args:
        model: model card (or name resolved against ``registry``).
        clock: virtual clock to advance per call; optional.
        ledger: usage ledger to record into; optional.
        oracle: ground-truth registry; defaults to the process-global one.
        registry: model registry for name resolution.
        tracer: observability tracer; every metered call becomes an
            ``llm.call`` leaf span.  Defaults to the no-op tracer.
        replay: optional :class:`~repro.llm.replay.ReplayLog`.  When primed
            (incremental re-run), calls found in the log charge their
            cold-equivalent cost/latency from the recorded token counts and
            are tallied as reused; either way every call of this run is
            captured into the log for the next re-run.  Replay sits
            *behind* the cache: a cache hit never consults the log.
    """

    def __init__(
        self,
        model: Union[ModelCard, str],
        clock: Optional[VirtualClock] = None,
        ledger: Optional[UsageLedger] = None,
        oracle: Optional[GroundTruthRegistry] = None,
        registry: Optional[ModelRegistry] = None,
        cache: Optional[CallCache] = None,
        tracer=None,
        replay: Optional[ReplayLog] = None,
    ):
        registry = registry or default_registry()
        self.model = registry.get(model) if isinstance(model, str) else model
        self.clock = clock
        self.ledger = ledger
        self.oracle = oracle if oracle is not None else global_oracle()
        self.cache = cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.replay = replay

    # ------------------------------------------------------------------
    # Accounting plumbing.
    # ------------------------------------------------------------------

    def _meter(self, prompt: str, output_text: str, operation: str) -> LLMUsage:
        return self._meter_tokens(count_tokens(prompt), output_text, operation)

    def _meter_tokens(self, input_tokens: int, output_text: str,
                      operation: str, amortize_overhead: bool = False) -> LLMUsage:
        if input_tokens > self.model.context_window:
            raise ContextWindowExceeded(
                self.model.name, input_tokens, self.model.context_window
            )
        return meter_call(
            self.model, input_tokens, max(1, count_tokens(output_text)),
            operation, self.clock, self.ledger, self.tracer,
            amortize_overhead=amortize_overhead,
        )

    def _cache_hit_response(self, value: Any, operation: str) -> LLMResponse:
        """Build the metered response for a cache hit (near-free)."""
        latency = CallCache.HIT_LATENCY_SECONDS
        timestamp = self.clock.advance(latency) if self.clock else 0.0
        usage = LLMUsage(
            model=self.model.name,
            input_tokens=0,
            output_tokens=0,
            cost_usd=0.0,
            latency_seconds=latency,
            operation=f"{operation}:cached",
            virtual_timestamp=timestamp,
        )
        if self.ledger is not None:
            self.ledger.record(usage)
        if self.tracer.enabled:
            trace_call(self.tracer, self.clock, usage, cache_hit=True)
        return LLMResponse(
            value=value, text=json.dumps(value, default=str),
            usage=usage, model=self.model.name,
        )

    def _replayed_response(self, entry: CallRecord, text: str,
                           operation: str, key,
                           amortize_overhead: bool = False) -> LLMResponse:
        """Serve one call from the replay log with cold-identical accounting.

        The recorded token counts run through :meth:`_meter_tokens` — the
        same path a cold call takes — so cost, latency, the ledger entry,
        and the trace span are byte-identical to the call this one replays;
        only the prompt construction and answer derivation are skipped.
        The charge is then tallied as *reused* so incremental reporting can
        subtract it from the run's bill, and the base entry is carried
        into this run's own call log.
        """
        usage = self._meter_tokens(
            entry.input_tokens, text, operation,
            amortize_overhead=amortize_overhead,
        )
        self.replay.reuse(key, usage)
        return LLMResponse(value=entry.value, text=text, usage=usage,
                           model=self.model.name)

    def _apply_context_fraction(self, document: str, fraction: float) -> str:
        if fraction >= 1.0:
            return document
        budget = max(16, int(count_tokens(document) * fraction))
        return truncate_to_tokens(document, budget)

    # ------------------------------------------------------------------
    # Boolean judgments (semantic filter).
    # ------------------------------------------------------------------

    def judge(self, request: BooleanRequest) -> LLMResponse:
        if not request.predicate.strip():
            raise InvalidRequestError("filter predicate must be non-empty")
        fingerprint = fingerprint_text(request.document)
        cache_key = None
        if self.cache is not None:
            cache_key = CallCache.make_key(
                self.model.name, "judge", request.predicate.lower(),
                fingerprint, request.context_fraction,
            )
            hit, value = self.cache.lookup(cache_key)
            if hit:
                return self._cache_hit_response(value, request.operation)
        replay_key = None
        if self.replay is not None:
            replay_key = ReplayLog.judge_key(
                self.model.name, request, fingerprint
            )
            entry = self.replay.lookup(replay_key)
            if entry is not None:
                return self._replayed_response(
                    entry, "TRUE" if entry.value else "FALSE",
                    request.operation, replay_key,
                )
        visible = self._apply_context_fraction(
            request.document, request.context_fraction
        )
        answer = self._judge_answer(request, fingerprint, visible)
        prompt = prompts.build_filter_prompt(request.predicate, visible)
        text = "TRUE" if answer else "FALSE"
        usage = self._meter(prompt, text, request.operation)
        if cache_key is not None:
            self.cache.store(cache_key, answer)
        if replay_key is not None:
            self.replay.record(
                replay_key, answer, usage.input_tokens, usage.output_tokens
            )
        return LLMResponse(value=answer, text=text, usage=usage,
                           model=self.model.name)

    def _judge_answer(self, request: BooleanRequest, fingerprint: str,
                      visible: str) -> bool:
        """The model's (possibly corrupted) True/False answer.

        Pure function of (model, document, predicate, context fraction) —
        shared verbatim by the per-record and batched paths so batching can
        never change an answer.
        """
        truth = self.oracle.predicate_truth(request.document, request.predicate)
        if truth is None:
            truth = semantics.answer_boolean(request.predicate, visible)
            difficulty = 0.5
        else:
            difficulty = self.oracle.difficulty(request.document)
        task_key = f"judge|{request.predicate.lower()}"
        correct = quality.decide_correct(
            self.model, fingerprint, task_key, difficulty, request.context_fraction
        )
        return truth if correct else quality.corrupt_boolean(truth)

    # ------------------------------------------------------------------
    # Field extraction (semantic convert).
    # ------------------------------------------------------------------

    def extract(self, request: ExtractionRequest) -> LLMResponse:
        if not request.fields:
            raise InvalidRequestError("extraction request must name >= 1 field")
        fingerprint = fingerprint_text(request.document)
        cache_key = None
        if self.cache is not None:
            signature = "|".join(sorted(request.fields)) + (
                "|1:N" if request.one_to_many else "|1:1"
            )
            cache_key = CallCache.make_key(
                self.model.name, "extract", signature,
                fingerprint, request.context_fraction,
            )
            hit, value = self.cache.lookup(cache_key)
            if hit:
                return self._cache_hit_response(value, request.operation)
        replay_key = None
        if self.replay is not None:
            replay_key = ReplayLog.extract_key(
                self.model.name, request, fingerprint
            )
            entry = self.replay.lookup(replay_key)
            if entry is not None:
                return self._replayed_response(
                    entry, json.dumps(entry.value, default=str),
                    request.operation, replay_key,
                )
        visible = self._apply_context_fraction(
            request.document, request.context_fraction
        )
        payload = self._extract_payload(request, visible, fingerprint)
        text = json.dumps(payload, default=str)
        prompt = prompts.build_extract_prompt(
            request.fields, visible, request.schema_description,
            one_to_many=request.one_to_many,
        )
        usage = self._meter(prompt, text, request.operation)
        if cache_key is not None:
            self.cache.store(cache_key, payload)
        if replay_key is not None:
            self.replay.record(
                replay_key, payload, usage.input_tokens, usage.output_tokens
            )
        return LLMResponse(value=payload, text=text, usage=usage,
                           model=self.model.name)

    def _extract_payload(self, request: ExtractionRequest, visible: str,
                         fingerprint: str) -> Any:
        """The typed extraction answer (dict, or list of dicts for 1:N).

        Shared verbatim by the per-record and batched paths.
        """
        if request.one_to_many:
            return self._extract_instances(request, visible, fingerprint)
        return self._extract_single(request, visible, fingerprint)

    def _extract_single(self, request: ExtractionRequest, visible: str,
                        fingerprint: str) -> Dict[str, Any]:
        difficulty = self.oracle.difficulty(request.document)
        result: Dict[str, Any] = {}
        for name, desc in request.fields.items():
            known, true_value = self.oracle.field_truth(request.document, name)
            if not known:
                true_value = semantics.extract_field(name, desc, visible)
                doc_difficulty = 0.5
            else:
                doc_difficulty = difficulty
            task_key = f"extract|{name.lower()}"
            correct = quality.decide_correct(
                self.model, fingerprint, task_key, doc_difficulty,
                request.context_fraction,
            )
            if correct:
                result[name] = true_value
            else:
                result[name] = quality.corrupt_value(
                    self.model, fingerprint, task_key, true_value
                )
        return result

    def _extract_instances(self, request: ExtractionRequest, visible: str,
                           fingerprint: str) -> List[Dict[str, Any]]:
        known, instances = self.oracle.field_truth(
            request.document, "__instances__"
        )
        if known and isinstance(instances, list):
            difficulty = self.oracle.difficulty(request.document)
            out: List[Dict[str, Any]] = []
            for idx, instance in enumerate(instances):
                task_key = f"instance|{idx}"
                keep = quality.decide_correct(
                    self.model, fingerprint, task_key, difficulty,
                    request.context_fraction,
                )
                if not keep:
                    continue
                row: Dict[str, Any] = {}
                for name, desc in request.fields.items():
                    true_value = instance.get(name)
                    field_key = f"instance|{idx}|{name.lower()}"
                    correct = quality.decide_correct(
                        self.model, fingerprint, field_key, difficulty,
                        request.context_fraction,
                    )
                    row[name] = (
                        true_value
                        if correct
                        else quality.corrupt_value(
                            self.model, fingerprint, field_key, true_value
                        )
                    )
                out.append(row)
            return out
        # Unknown document: heuristics produce at most one instance.
        single = self._extract_single(request, visible, fingerprint)
        return [single] if any(v is not None for v in single.values()) else []

    # ------------------------------------------------------------------
    # Batched calls.
    #
    # A batch produces byte-identical answers and token/cost accounting to
    # issuing the requests one by one: answers are pure functions of
    # (model, document, task), and the tokenizer never matches across
    # whitespace so prompt token counts are exactly additive over the
    # (prefix, document, suffix) split.  What a batch saves is *real* work
    # — the prompt string is never materialized and the shared prefix /
    # suffix are tokenized once per batch instead of once per record — and
    # *simulated* per-call overhead: every request after the first priced
    # one amortizes the model's fixed ``overhead_seconds``.
    # ------------------------------------------------------------------

    def run_batch(
        self, requests: Sequence[Union[BooleanRequest, ExtractionRequest]]
    ) -> List[LLMResponse]:
        """Answer a batch of judge/extract requests in order.

        Returns one :class:`LLMResponse` per request, in request order.
        """
        responses: List[LLMResponse] = []
        filter_parts: Dict[str, Tuple[int, int]] = {}
        extract_parts: Dict[Any, Tuple[int, int]] = {}
        overhead_paid = False
        for request in requests:
            if isinstance(request, BooleanRequest):
                response, priced = self._judge_batched(
                    request, filter_parts, overhead_paid
                )
            elif isinstance(request, ExtractionRequest):
                response, priced = self._extract_batched(
                    request, extract_parts, overhead_paid
                )
            else:
                raise InvalidRequestError(
                    f"run_batch cannot handle {type(request).__name__}"
                )
            overhead_paid = overhead_paid or priced
            responses.append(response)
        return responses

    def judge_batch(self, requests: Sequence[BooleanRequest]) -> List[LLMResponse]:
        """Batched :meth:`judge`; same answers, amortized overhead."""
        return self.run_batch(requests)

    def extract_batch(
        self, requests: Sequence[ExtractionRequest]
    ) -> List[LLMResponse]:
        """Batched :meth:`extract`; same answers, amortized overhead."""
        return self.run_batch(requests)

    def _judge_batched(
        self, request: BooleanRequest,
        parts_memo: Dict[str, Tuple[int, int]], overhead_paid: bool,
    ) -> Tuple[LLMResponse, bool]:
        """(response, priced?) for one request inside a batch."""
        if not request.predicate.strip():
            raise InvalidRequestError("filter predicate must be non-empty")
        fingerprint = fingerprint_text(request.document)
        cache_key = None
        if self.cache is not None:
            cache_key = CallCache.make_key(
                self.model.name, "judge", request.predicate.lower(),
                fingerprint, request.context_fraction,
            )
            hit, value = self.cache.lookup(cache_key)
            if hit:
                return self._cache_hit_response(value, request.operation), False
        replay_key = None
        if self.replay is not None:
            replay_key = ReplayLog.judge_key(
                self.model.name, request, fingerprint
            )
            entry = self.replay.lookup(replay_key)
            if entry is not None:
                # A replayed call is *priced* (it charges the cold
                # accounting), so it pays/amortizes overhead like one.
                response = self._replayed_response(
                    entry, "TRUE" if entry.value else "FALSE",
                    request.operation, replay_key,
                    amortize_overhead=overhead_paid,
                )
                return response, True
        visible = self._apply_context_fraction(
            request.document, request.context_fraction
        )
        answer = self._judge_answer(request, fingerprint, visible)
        text = "TRUE" if answer else "FALSE"
        parts = parts_memo.get(request.predicate)
        if parts is None:
            prefix, suffix = prompts.filter_prompt_parts(request.predicate)
            parts = (count_tokens(prefix), count_tokens(suffix))
            parts_memo[request.predicate] = parts
        input_tokens = parts[0] + count_tokens(visible) + parts[1]
        usage = self._meter_tokens(
            input_tokens, text, request.operation,
            amortize_overhead=overhead_paid,
        )
        if cache_key is not None:
            self.cache.store(cache_key, answer)
        if replay_key is not None:
            self.replay.record(
                replay_key, answer, usage.input_tokens, usage.output_tokens
            )
        response = LLMResponse(value=answer, text=text, usage=usage,
                               model=self.model.name)
        return response, True

    def _extract_batched(
        self, request: ExtractionRequest,
        parts_memo: Dict[Any, Tuple[int, int]], overhead_paid: bool,
    ) -> Tuple[LLMResponse, bool]:
        """(response, priced?) for one request inside a batch."""
        if not request.fields:
            raise InvalidRequestError("extraction request must name >= 1 field")
        fingerprint = fingerprint_text(request.document)
        cache_key = None
        if self.cache is not None:
            signature = "|".join(sorted(request.fields)) + (
                "|1:N" if request.one_to_many else "|1:1"
            )
            cache_key = CallCache.make_key(
                self.model.name, "extract", signature,
                fingerprint, request.context_fraction,
            )
            hit, value = self.cache.lookup(cache_key)
            if hit:
                return self._cache_hit_response(value, request.operation), False
        replay_key = None
        if self.replay is not None:
            replay_key = ReplayLog.extract_key(
                self.model.name, request, fingerprint
            )
            entry = self.replay.lookup(replay_key)
            if entry is not None:
                response = self._replayed_response(
                    entry, json.dumps(entry.value, default=str),
                    request.operation, replay_key,
                    amortize_overhead=overhead_paid,
                )
                return response, True
        visible = self._apply_context_fraction(
            request.document, request.context_fraction
        )
        payload = self._extract_payload(request, visible, fingerprint)
        text = json.dumps(payload, default=str)
        parts_key = (
            tuple(request.fields.items()), request.schema_description,
            request.one_to_many,
        )
        parts = parts_memo.get(parts_key)
        if parts is None:
            prefix, suffix = prompts.extract_prompt_parts(
                request.fields, request.schema_description,
                one_to_many=request.one_to_many,
            )
            parts = (count_tokens(prefix), count_tokens(suffix))
            parts_memo[parts_key] = parts
        input_tokens = parts[0] + count_tokens(visible) + parts[1]
        usage = self._meter_tokens(
            input_tokens, text, request.operation,
            amortize_overhead=overhead_paid,
        )
        if cache_key is not None:
            self.cache.store(cache_key, payload)
        if replay_key is not None:
            self.replay.record(
                replay_key, payload, usage.input_tokens, usage.output_tokens
            )
        response = LLMResponse(value=payload, text=text, usage=usage,
                               model=self.model.name)
        return response, True

    # ------------------------------------------------------------------
    # Free-form completions (chat agent reasoning).
    # ------------------------------------------------------------------

    def complete(self, request: CompletionRequest) -> LLMResponse:
        if not request.prompt.strip():
            raise InvalidRequestError("completion prompt must be non-empty")
        # The deterministic agent brain supplies the semantic content of the
        # completion; the client only meters a plausible-size answer.
        text = semantics.summarize(request.prompt, max_sentences=1)
        text = truncate_to_tokens(text, request.max_output_tokens)
        usage = self._meter(request.prompt, text or "OK", request.operation)
        return LLMResponse(value=text, text=text, usage=usage,
                           model=self.model.name)
