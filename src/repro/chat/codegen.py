"""Render a conversation's pipeline as a runnable Palimpzest program.

Reproduces Fig. 6: "the final code generated can be seen in Figure 6 ...
users may continue to iterate on the code produced either through the chat
interface or by downloading a Jupyter notebook that contains all inputs and
generated snippets of code."

The emitted source uses only the public ``repro`` API and is executable with
:func:`exec_program` (benchmark E6 re-runs it and compares results).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.chat.workspace import PipelineStep, fold_options
from repro.core.errors import PalimpzestError
from repro.physical.options import ExecutionOptions


class CodegenError(PalimpzestError):
    """A logged step cannot be rendered as valid Palimpzest code."""


_POLICY_EXPR = {
    "quality": "pz.MaxQuality()",
    "cost": "pz.MinCost()",
    "runtime": "pz.MinTime()",
}

_CARDINALITY_EXPR = {
    "one_to_one": "pz.Cardinality.ONE_TO_ONE",
    "one_to_many": "pz.Cardinality.ONE_TO_MANY",
}


#: ``pz.Execute``'s option defaults; the program names only the others.
_DEFAULT_OPTIONS = ExecutionOptions().kwargs()


def generate_program(steps: Sequence[PipelineStep]) -> str:
    """Emit the Fig. 6-style program for a step log.

    A ``reset`` step starts the program over; the execution options set
    before it carry on, as they do in the workspace.
    """
    header = ["import repro as pz", ""]
    lines: List[str] = list(header)
    policy_expr = "pz.MaxQuality()"
    options = ExecutionOptions()
    emitted_pipeline = False

    for step in steps:
        if step.kind == "reset":
            lines = list(header)
            policy_expr = "pz.MaxQuality()"
            emitted_pipeline = False
        elif step.kind == "load":
            lines.append("# Set input dataset")
            lines.append(
                f"dataset = pz.Dataset(source={step.params['source']!r})"
            )
            lines.append("")
            emitted_pipeline = True
        elif step.kind == "filter":
            lines.append("# Filter dataset")
            lines.append(
                f"dataset = dataset.filter({step.params['predicate']!r})"
            )
            lines.append("")
        elif step.kind == "schema":
            name = step.params["name"]
            lines.append("# Create new schema")
            lines.append(f"{name} = pz.make_schema(")
            lines.append(f"    {name!r},")
            lines.append(f"    {step.params['description']!r},")
            lines.append(f"    {step.params['field_names']!r},")
            lines.append(
                "    field_descriptions="
                f"{step.params['field_descriptions']!r},"
            )
            lines.append(")")
            lines.append("")
        elif step.kind == "convert":
            key = str(step.params.get("cardinality", "one_to_one")).lower()
            if key not in _CARDINALITY_EXPR:
                raise CodegenError(
                    f"unknown cardinality {key!r} in convert step; "
                    f"expected one of {sorted(_CARDINALITY_EXPR)}"
                )
            cardinality = _CARDINALITY_EXPR[key]
            lines.append("# Perform conversion")
            lines.append(
                f"dataset = dataset.convert({step.params['schema']}, "
                f"cardinality={cardinality})"
            )
            lines.append("")
        elif step.kind == "policy":
            key = str(step.params.get("target", "quality")).lower()
            if key not in _POLICY_EXPR:
                raise CodegenError(
                    f"unknown optimization target {key!r} in policy step; "
                    f"expected one of {sorted(_POLICY_EXPR)}"
                )
            policy_expr = _POLICY_EXPR[key]
        elif step.kind in ("parallelism", "execution_mode"):
            options = fold_options(options, step)
        elif step.kind in ("execute", "rerun"):
            if step.kind == "rerun":
                # A re-run gives the same result as a cold run on the
                # updated corpus, which is what this call makes.
                lines.append("# Re-run workload on the updated corpus")
            else:
                lines.append("# Execute workload")
            lines.append(f"policy = {policy_expr}")
            extra = "".join(f", {key}={value!r}"
                            for key, value in options.kwargs().items()
                            if value != _DEFAULT_OPTIONS[key])
            lines.append(
                "records, execution_stats = pz.Execute(dataset, "
                f"policy=policy{extra})"
            )
            lines.append("")
        else:
            raise CodegenError(f"unknown step kind {step.kind!r}")

    if not emitted_pipeline:
        return (
            "# No pipeline has been built yet.\n"
            "# Load a dataset through the chat to generate code.\n"
        )
    return "\n".join(lines).rstrip() + "\n"


def exec_program(source: str) -> Dict[str, Any]:
    """Execute a generated program; return its namespace.

    The namespace exposes ``records`` and ``execution_stats`` when the
    program contains an execute step.
    """
    import repro as pz

    namespace: Dict[str, Any] = {"pz": pz}
    exec(compile(source, "<generated-pipeline>", "exec"), namespace)
    return namespace
