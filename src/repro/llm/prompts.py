"""Prompt construction for simulated semantic operators.

No remote model ever sees these prompts, but token counts of the *actual
prompt text* are what drive cost and latency accounting, so the
simulation's economics respond to the same knobs a real deployment's would
(context length, number of fields per call, instruction overhead).

Every prompt is a constant frame around the one piece that changes from
call to call, and every joint between them is whitespace.  The tokenizer
never matches across whitespace, so a prompt's token count is exactly the
sum over its pieces: the client counts a frame once (``*_prompt_parts``)
and only the changing piece per call, and never builds the prompt string.
The ``build_*_prompt`` functions are the spec those sums are tested
against.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

FILTER_SYSTEM_PROMPT = (
    "You are a precise data analyst. Decide whether the document below "
    "satisfies the stated condition. Answer with exactly TRUE or FALSE."
)

EXTRACT_SYSTEM_PROMPT = (
    "You are a precise information extraction engine. Read the document and "
    "output a JSON object with the requested fields. Use null for fields "
    "that are not present. Do not invent values."
)

ONE_TO_MANY_SUFFIX = (
    "The document may describe multiple such objects; output a JSON array "
    "with one object per instance."
)


def filter_prompt_parts(predicate: str) -> Tuple[str, str]:
    """(prefix, suffix) such that ``prefix + document + suffix`` equals
    :func:`build_filter_prompt` for any document.

    Both boundaries are whitespace, so the split token counts are exactly
    additive (see the module docstring).
    """
    prefix = (
        f"{FILTER_SYSTEM_PROMPT}\n\n"
        f"Condition: {predicate}\n\n"
        f"Document:\n"
    )
    suffix = "\n\nAnswer (TRUE or FALSE):"
    return prefix, suffix


def build_filter_prompt(predicate: str, document: str) -> str:
    prefix, suffix = filter_prompt_parts(predicate)
    return f"{prefix}{document}{suffix}"


def extract_prompt_parts(
    field_descriptions: Dict[str, str],
    schema_description: str = "",
    one_to_many: bool = False,
) -> Tuple[str, str]:
    """(prefix, suffix) such that ``prefix + document + suffix`` equals
    :func:`build_extract_prompt` for any document (same additivity contract
    as :func:`filter_prompt_parts`)."""
    field_lines = "\n".join(
        f"- {name}: {desc or 'no description provided'}"
        for name, desc in field_descriptions.items()
    )
    parts = [EXTRACT_SYSTEM_PROMPT]
    if schema_description:
        parts.append(f"Target schema: {schema_description}")
    parts.append(f"Fields to extract:\n{field_lines}")
    if one_to_many:
        parts.append(ONE_TO_MANY_SUFFIX)
    prefix = "\n\n".join(parts) + "\n\nDocument:\n"
    suffix = "\n\nJSON output:"
    return prefix, suffix


def build_extract_prompt(
    field_descriptions: Dict[str, str],
    document: str,
    schema_description: str = "",
    one_to_many: bool = False,
) -> str:
    prefix, suffix = extract_prompt_parts(
        field_descriptions, schema_description, one_to_many=one_to_many
    )
    return f"{prefix}{document}{suffix}"


def agent_prompt_parts(system: str, tools_block: str, scratchpad: str,
                       user_message: str) -> Tuple[str, str]:
    """(preamble, rest) such that ``preamble + rest`` equals
    :func:`build_agent_prompt`.

    The preamble — system prompt and tool catalogue, most of the prompt —
    is the same string on every reasoning step of a session and ends in
    whitespace (same additivity contract as :func:`filter_prompt_parts`).
    """
    preamble = f"{system}\n\nAvailable tools:\n{tools_block}\n\n"
    rest = (
        f"Conversation so far:\n{scratchpad}\n\nUser: {user_message}\n"
        f"Thought:"
    )
    return preamble, rest


def build_agent_prompt(system: str, tools_block: str, scratchpad: str,
                       user_message: str) -> str:
    return (
        f"{system}\n\nAvailable tools:\n{tools_block}\n\n"
        f"Conversation so far:\n{scratchpad}\n\nUser: {user_message}\n"
        f"Thought:"
    )


def estimate_output_tokens_for_fields(field_names: Sequence[str],
                                      instances: int = 1) -> int:
    """Rough completion size for a JSON extraction answer.

    ~12 tokens per field (key, punctuation, value) plus array overhead.
    """
    per_instance = 4 + 12 * max(1, len(field_names))
    return per_instance * max(1, instances)
