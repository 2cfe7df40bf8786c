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
of answers.  Every call is metered: the tokens of the prompt
(:mod:`repro.llm.prompts`) are counted piece by piece — the string itself
is never built — and cost/latency accrue to the attached ledger/clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.llm import prompts, quality, semantics
from repro.llm.cache import CallCache
from repro.llm.clock import VirtualClock
from repro.llm.exceptions import ContextWindowExceeded, InvalidRequestError
from repro.llm.models import ModelCard, ModelRegistry, default_registry
from repro.llm.oracle import GroundTruthRegistry, fingerprint_text, global_oracle
from repro.llm.replay import ReplayLog
from repro.llm.tokenizer import (
    count_tokens,
    count_tokens_unmemoized,
    truncate_to_tokens,
)
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
    """Free-form completion of ``preamble + prompt`` (used by the chat agent).

    ``preamble`` is the leading part of the prompt that repeats from call
    to call (the agent's system prompt and tool catalogue).  It is counted
    on its own — a memo hit after the first call — and must end in
    whitespace so that the two counts add up to the whole prompt's.
    """

    prompt: str
    operation: str = "completion"
    max_output_tokens: int = 512
    preamble: str = ""


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


class _PromptFrame(NamedTuple):
    """What a *prompt identity* — a filter's predicate; a convert's (fields,
    schema description, cardinality) — fixes for every document asked
    about: the one derivation behind the token count of the prompt's
    constant pieces and the task signature of the call's
    :class:`CallCache` and :class:`ReplayLog` keys, so a call is never
    reused under a prompt that reads differently."""

    signature: str
    #: count(prefix) + count(suffix); add the visible document's count.
    tokens: int

    @classmethod
    def of(cls, signature: str, parts: Tuple[str, str]) -> "_PromptFrame":
        prefix, suffix = parts
        return cls(signature, count_tokens(prefix) + count_tokens(suffix))


def _verdict_text(value: bool) -> str:
    return "TRUE" if value else "FALSE"


def _payload_text(value: Any) -> str:
    return json.dumps(value, default=str)


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
        #: Prompt identity -> frame, for every prompt this client was asked
        #: (a client lives as long as one operator of one run, so a
        #: handful).  Worker threads share it lock-free: single dict
        #: get/set, and two threads racing on one identity store equal
        #: frames.
        self._frames: Dict[Any, _PromptFrame] = {}

    # ------------------------------------------------------------------
    # Accounting plumbing.
    # ------------------------------------------------------------------

    def _meter_tokens(self, input_tokens: int, output_tokens: int,
                      operation: str, amortize_overhead: bool = False) -> LLMUsage:
        if input_tokens > self.model.context_window:
            raise ContextWindowExceeded(
                self.model.name, input_tokens, self.model.context_window
            )
        return meter_call(
            self.model, input_tokens, max(1, output_tokens),
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
            value=value, text=_payload_text(value),
            usage=usage, model=self.model.name,
        )

    def _apply_context_fraction(self, document: str, fraction: float) -> str:
        if fraction >= 1.0:
            return document
        budget = max(16, int(count_tokens(document) * fraction))
        return truncate_to_tokens(document, budget)

    # ------------------------------------------------------------------
    # Judge / extract: one priced-call path.
    #
    # ``judge(r)`` and ``extract(r)`` are ``run_batch([r])[0]`` by
    # construction: every request, alone or in a batch, goes through
    # :meth:`_priced_call`, and the only thing a batch changes is
    # *simulated* — each request after the first priced one amortizes the
    # model's fixed ``overhead_seconds``.  Answers are pure functions of
    # (model, document, task), and prompt token counts are exactly
    # additive over the (prefix, document, suffix) split, so the real work
    # per request is the same on every schedule: one lookup of the
    # prompt's frame, one count of the document.
    # ------------------------------------------------------------------

    def judge(self, request: BooleanRequest) -> LLMResponse:
        return self._judge(request, overhead_paid=False)[0]

    def extract(self, request: ExtractionRequest) -> LLMResponse:
        return self._extract(request, overhead_paid=False)[0]

    def run_batch(
        self, requests: Sequence[Union[BooleanRequest, ExtractionRequest]]
    ) -> List[LLMResponse]:
        """Answer a batch of judge/extract requests in order.

        Returns one :class:`LLMResponse` per request, in request order.
        """
        responses: List[LLMResponse] = []
        overhead_paid = False
        for request in requests:
            if isinstance(request, BooleanRequest):
                response, priced = self._judge(request, overhead_paid)
            elif isinstance(request, ExtractionRequest):
                response, priced = self._extract(request, overhead_paid)
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

    def _judge(self, request: BooleanRequest,
               overhead_paid: bool) -> Tuple[LLMResponse, bool]:
        frame = self._frames.get(request.predicate)
        if frame is None:
            if not request.predicate.strip():
                raise InvalidRequestError("filter predicate must be non-empty")
            frame = self._frames[request.predicate] = _PromptFrame.of(
                request.predicate.lower(),
                prompts.filter_prompt_parts(request.predicate),
            )
        return self._priced_call(
            "judge", request, frame, self._judge_answer, _verdict_text,
            overhead_paid,
        )

    def _extract(self, request: ExtractionRequest,
                 overhead_paid: bool) -> Tuple[LLMResponse, bool]:
        identity = (tuple(request.fields.items()), request.schema_description,
                    request.one_to_many)
        frame = self._frames.get(identity)
        if frame is None:
            if not request.fields:
                raise InvalidRequestError(
                    "extraction request must name >= 1 field"
                )
            parts = prompts.extract_prompt_parts(
                request.fields, request.schema_description,
                one_to_many=request.one_to_many,
            )
            # Field names and cardinality for the reader of a call log;
            # the digest for everything else the prefix says (field order
            # and descriptions, the schema description).
            signature = "|".join(sorted(request.fields)) + (
                "|1:N|" if request.one_to_many else "|1:1|"
            ) + hashlib.sha256(parts[0].encode("utf-8")).hexdigest()[:16]
            frame = self._frames[identity] = _PromptFrame.of(signature, parts)
        return self._priced_call(
            "extract", request, frame, self._extract_payload, _payload_text,
            overhead_paid,
        )

    def _priced_call(
        self, kind: str,
        request: Union[BooleanRequest, ExtractionRequest],
        frame: _PromptFrame,
        answer: Callable[[Any, str, str], Any],
        render: Callable[[Any], str],
        overhead_paid: bool,
    ) -> Tuple[LLMResponse, bool]:
        """(response, priced?) for one judge/extract request.

        Cache lookup, replay lookup, answer, meter, store — the one
        sequence behind every entry point.  ``overhead_paid`` says an
        earlier request of the same batch was priced, so this one rides
        its connection.  A cache hit is not priced; a replayed call is (it
        charges the cold accounting from the recorded token counts, and
        only the answer derivation and the document count are skipped), so
        it pays/amortizes overhead like a fresh one.
        """
        fingerprint = fingerprint_text(request.document)
        cache_key = replay_key = None
        if self.cache is not None:
            cache_key = CallCache.make_key(
                self.model.name, kind, frame.signature, fingerprint,
                request.context_fraction,
            )
            hit, value = self.cache.lookup(cache_key)
            if hit:
                return self._cache_hit_response(value, request.operation), False
        if self.replay is not None:
            replay_key = ReplayLog.make_key(
                self.model.name, kind, frame.signature, fingerprint,
                request.context_fraction, request.operation,
            )
            entry = self.replay.lookup(replay_key)
            if entry is not None:
                usage = self._meter_tokens(
                    entry.input_tokens, entry.output_tokens,
                    request.operation, amortize_overhead=overhead_paid,
                )
                # Tallied as *reused* so incremental reporting can subtract
                # it from the run's bill; the base entry is carried into
                # this run's own call log.
                self.replay.reuse(replay_key, usage)
                return LLMResponse(value=entry.value, text=render(entry.value),
                                   usage=usage, model=self.model.name), True
        visible = self._apply_context_fraction(
            request.document, request.context_fraction
        )
        value = answer(request, fingerprint, visible)
        text = render(value)
        usage = self._meter_tokens(
            frame.tokens + count_tokens(visible),
            count_tokens_unmemoized(text),
            request.operation, amortize_overhead=overhead_paid,
        )
        if cache_key is not None:
            self.cache.store(cache_key, value)
        if replay_key is not None:
            self.replay.record(
                replay_key, value, usage.input_tokens, usage.output_tokens
            )
        return LLMResponse(value=value, text=text, usage=usage,
                           model=self.model.name), True

    # ------------------------------------------------------------------
    # Answers: pure functions of (model, document, task, context fraction).
    # ------------------------------------------------------------------

    def _judge_answer(self, request: BooleanRequest, fingerprint: str,
                      visible: str) -> bool:
        """The model's (possibly corrupted) True/False answer."""
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

    def _extract_payload(self, request: ExtractionRequest, fingerprint: str,
                         visible: str) -> Any:
        """The typed extraction answer (dict, or list of dicts for 1:N)."""
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
    # Free-form completions (chat agent reasoning).
    # ------------------------------------------------------------------

    def complete(self, request: CompletionRequest) -> LLMResponse:
        if not request.prompt.strip():
            raise InvalidRequestError("completion prompt must be non-empty")
        preamble = request.preamble
        if preamble and not preamble[-1].isspace():
            raise InvalidRequestError(
                "completion preamble must end in whitespace"
            )
        # The deterministic agent brain supplies the semantic content of the
        # completion; the client only meters a plausible-size answer.
        text = semantics.summarize(preamble + request.prompt, max_sentences=1)
        text = truncate_to_tokens(text, request.max_output_tokens)
        usage = self._meter_tokens(
            count_tokens(preamble) + count_tokens_unmemoized(request.prompt),
            count_tokens_unmemoized(text or "OK"), request.operation,
        )
        return LLMResponse(value=text, text=text, usage=usage,
                           model=self.model.name)
