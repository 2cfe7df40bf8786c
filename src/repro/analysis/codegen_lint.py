"""Codegen lint (``CG3xx``): generated programs and exported notebooks.

:mod:`repro.chat.codegen` emits runnable Palimpzest programs and the
Beaker-style notebook exports them together with the chat history.  Both
artifacts are *code the user will re-run later*, so they are AST-checked
here without executing anything:

* programs may only call the public ``repro`` API (``import repro as pz``)
  with valid attribute names and argument shapes, and may not reference
  undefined names at module level;
* ``.ipynb`` documents must be structurally valid (nbformat 4, kernelspec
  metadata, well-formed cells) and carry a monotonically replayable
  generated-program history (each generated snippet extends the previous
  one, so replaying the cells top to bottom reproduces the session).
"""

from __future__ import annotations

import ast
import builtins
import difflib
import inspect
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from repro.analysis.diagnostics import (
    DEFAULT_CONFIG,
    Emitter,
    LintConfig,
    LintResult,
    Severity,
    register_rule,
)

register_rule(
    "CG301", "program-syntax",
    "the generated program does not parse",
    Severity.ERROR,
)
register_rule(
    "CG302", "unknown-api",
    "the program references a repro API attribute that does not exist",
    Severity.ERROR,
)
register_rule(
    "CG303", "bad-call",
    "a repro API call has the wrong argument shape",
    Severity.ERROR,
)
register_rule(
    "CG304", "undefined-name",
    "the program uses a module-level name that is never defined",
    Severity.ERROR,
)
register_rule(
    "CG305", "invalid-step",
    "a workspace step carries an unknown policy/cardinality key",
    Severity.ERROR,
)
register_rule(
    "CG306", "load-failure",
    "a lint target failed to load/execute",
    Severity.ERROR,
)
register_rule(
    "CG310", "notebook-format",
    "the notebook is missing nbformat/kernelspec metadata",
    Severity.ERROR,
)
register_rule(
    "CG311", "notebook-cell",
    "a notebook cell is structurally invalid",
    Severity.ERROR,
)
register_rule(
    "CG312", "notebook-history",
    "the generated-program history is not monotonically replayable",
    Severity.WARNING,
)

#: Header line every generated pipeline program starts with.
GENERATED_HEADER = "import repro as pz"


def _public_api() -> Dict[str, Any]:
    import repro

    return {name: getattr(repro, name) for name in repro.__all__}


def _dataset_methods() -> Dict[str, inspect.Signature]:
    from repro.core.dataset import Dataset

    methods = {}
    for name, member in vars(Dataset).items():
        if name.startswith("_") or not callable(member):
            continue
        methods[name] = inspect.signature(member)
    return methods


def _bindable_signature(obj: Any) -> Optional[inspect.Signature]:
    try:
        return inspect.signature(obj)
    except (TypeError, ValueError):
        return None


def _check_call_shape(signature: inspect.Signature, node: ast.Call,
                      skip_self: bool = False) -> Optional[str]:
    """Bind placeholder arguments; return the TypeError message if any."""
    positional: List[Any] = [None] * len(node.args)
    if any(isinstance(a, ast.Starred) for a in node.args):
        return None  # *args splat: shape unknown statically
    keywords = {}
    for keyword in node.keywords:
        if keyword.arg is None:
            return None  # **kwargs splat
        keywords[keyword.arg] = None
    if skip_self:
        positional = [None] + positional
    try:
        signature.bind(*positional, **keywords)
    except TypeError as exc:
        return str(exc)
    return None


class _ModuleNames(ast.NodeVisitor):
    """Collects module-level bindings and checks module-level name loads.

    Function/class bodies are skipped: generated programs are flat, and
    example scripts keep their logic inside ``main()`` where full scope
    analysis is out of lint's scope.
    """

    def __init__(self, emitter: Emitter, filename: str):
        self.emitter = emitter
        self.filename = filename
        self.defined: Set[str] = {
            "__name__", "__file__", "__doc__", "__builtins__",
        }
        self.defined.update(dir(builtins))

    def run(self, module: ast.Module) -> None:
        for statement in module.body:
            self._check_loads(statement)
            self._bind(statement)

    # -- bindings ---------------------------------------------------------

    def _bind(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                name = alias.asname or alias.name.split(".")[0]
                self.defined.add(name)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
            self.defined.add(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AugAssign,
                                    ast.AnnAssign)):
            targets = (
                statement.targets if isinstance(statement, ast.Assign)
                else [statement.target]
            )
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        self.defined.add(node.id)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            for node in ast.walk(statement.target):
                if isinstance(node, ast.Name):
                    self.defined.add(node.id)
            for sub in statement.body + statement.orelse:
                self._check_loads(sub)
                self._bind(sub)
        elif isinstance(statement, (ast.If, ast.While)):
            for sub in statement.body + statement.orelse:
                self._check_loads(sub)
                self._bind(sub)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                if item.optional_vars is not None:
                    for node in ast.walk(item.optional_vars):
                        if isinstance(node, ast.Name):
                            self.defined.add(node.id)
            for sub in statement.body:
                self._check_loads(sub)
                self._bind(sub)
        elif isinstance(statement, ast.Try):
            for sub in (statement.body + statement.orelse
                        + statement.finalbody):
                self._check_loads(sub)
                self._bind(sub)
            for handler in statement.handlers:
                if handler.name:
                    self.defined.add(handler.name)
                for sub in handler.body:
                    self._check_loads(sub)
                    self._bind(sub)

    # -- loads ------------------------------------------------------------

    def _check_loads(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Import,
                                  ast.ImportFrom, ast.If, ast.While,
                                  ast.For, ast.AsyncFor, ast.With,
                                  ast.AsyncWith, ast.Try)):
            # Compound statements recurse through _bind; defs are skipped.
            if isinstance(statement, (ast.If, ast.While)):
                self._check_expression_loads(statement.test, statement)
            return
        self._check_expression_loads(statement, statement)

    def _check_expression_loads(self, tree: ast.AST,
                                statement: ast.stmt) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Lambda, ast.ListComp, ast.SetComp,
                                 ast.DictComp, ast.GeneratorExp)):
                return  # nested scopes: out of lint's reach
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id not in self.defined:
                    close = difflib.get_close_matches(
                        node.id, sorted(self.defined), n=1
                    )
                    hint = (
                        f"did you mean {close[0]!r}?" if close else
                        "define the name before this statement"
                    )
                    self.emitter.emit(
                        "CG304",
                        f"name {node.id!r} is used but never defined",
                        location=f"{self.filename}:{node.lineno}",
                        hint=hint,
                    )
                    self.defined.add(node.id)  # report each name once


def lint_program(
    source: str,
    config: Optional[LintConfig] = None,
    filename: str = "<program>",
) -> LintResult:
    """AST-lint a generated (or example) program without executing it.

    Each analyzer family runs only when ``config`` enables one of its
    rules, so ``--family CC`` pays for the CC pass alone.
    """
    result = LintResult()
    enabled = (config or DEFAULT_CONFIG).family_enabled

    if enabled("CG"):
        emitter = Emitter(result, config)
        try:
            module = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            emitter.emit(
                "CG301",
                f"program does not parse: {exc.msg}",
                location=f"{filename}:{exc.lineno or 0}",
            )
            return result

        aliases = _repro_aliases(module)
        _lint_api_usage(module, aliases, _public_api(), emitter, filename)
        _lint_dataset_calls(module, aliases, _dataset_methods(), emitter,
                            filename)
        _ModuleNames(emitter, filename).run(module)
    # Generated programs get the same determinism scrutiny as the
    # engine's own source (CC5xx): a program that reads the wall clock
    # or iterates a set into its output breaks run-to-run reproducibility
    # just as surely as an engine bug would.
    if enabled("CC"):
        from repro.analysis.concurrency import lint_source_concurrency

        lint_source_concurrency(
            source, filename=filename, config=config, result=result
        )
    return result


def _repro_aliases(module: ast.Module) -> Set[str]:
    """Names the program binds to the ``repro`` package (usually ``pz``)."""
    aliases: Set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro":
                    aliases.add(alias.asname or "repro")
    return aliases


def _lint_api_usage(module: ast.Module, aliases: Set[str],
                    api: Dict[str, Any], emitter: Emitter,
                    filename: str) -> None:
    """CG302 unknown attributes, CG303 bad argument shapes on pz.*."""
    from repro.core.cardinality import Cardinality

    checked_calls: Set[int] = set()
    for node in ast.walk(module):
        if not isinstance(node, ast.Attribute):
            continue
        # pz.Cardinality.<member>
        if (
            isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in aliases
            and node.value.attr == "Cardinality"
        ):
            if node.attr not in Cardinality.__members__:
                emitter.emit(
                    "CG302",
                    f"Cardinality has no member {node.attr!r}; "
                    f"members: {sorted(Cardinality.__members__)}",
                    location=f"{filename}:{node.lineno}",
                )
            continue
        if not (isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            continue
        alias = node.value.id
        if node.attr not in api:
            close = difflib.get_close_matches(node.attr, sorted(api), n=1)
            hint = (
                f"did you mean {alias}.{close[0]}?" if close
                else "see repro.__all__ for the public API"
            )
            emitter.emit(
                "CG302",
                f"{alias}.{node.attr} is not part of the public repro API",
                location=f"{filename}:{node.lineno}",
                hint=hint,
            )
            continue

    for node in ast.walk(module):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
                and func.attr in api):
            continue
        if id(node) in checked_calls:
            continue
        checked_calls.add(id(node))
        target = api[func.attr]
        signature = _bindable_signature(target)
        if signature is None:
            continue
        problem = _check_call_shape(signature, node)
        if problem:
            emitter.emit(
                "CG303",
                f"{func.value.id}.{func.attr}(...) call does not match "
                f"the API signature: {problem}",
                location=f"{filename}:{node.lineno}",
                hint=f"signature: {func.attr}{signature}",
            )


def _lint_dataset_calls(module: ast.Module, aliases: Set[str],
                        methods: Dict[str, inspect.Signature],
                        emitter: Emitter, filename: str) -> None:
    """Track module-level Dataset variables; check fluent method calls."""
    dataset_vars: Set[str] = set()

    def is_dataset_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                    and func.attr == "Dataset"):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in methods
                    and is_dataset_expr(func.value)):
                return True
        if isinstance(node, ast.Name) and node.id in dataset_vars:
            return True
        return False

    for statement in module.body:
        for node in ast.walk(statement):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver_is_dataset = (
                (isinstance(func.value, ast.Name)
                 and func.value.id in dataset_vars)
                or is_dataset_expr(func.value)
            )
            if not receiver_is_dataset:
                continue
            if func.attr not in methods:
                close = difflib.get_close_matches(
                    func.attr, sorted(methods), n=1
                )
                hint = (
                    f"did you mean .{close[0]}(...)?" if close
                    else f"Dataset methods: {sorted(methods)}"
                )
                emitter.emit(
                    "CG302",
                    f"Dataset has no method {func.attr!r}",
                    location=f"{filename}:{node.lineno}",
                    hint=hint,
                )
                continue
            problem = _check_call_shape(
                methods[func.attr], node, skip_self=True
            )
            if problem:
                emitter.emit(
                    "CG303",
                    f"dataset.{func.attr}(...) call does not match the "
                    f"API signature: {problem}",
                    location=f"{filename}:{node.lineno}",
                    hint=f"signature: {func.attr}{methods[func.attr]}",
                )
        if isinstance(statement, ast.Assign):
            if is_dataset_expr(statement.value):
                for target in statement.targets:
                    if isinstance(target, ast.Name):
                        dataset_vars.add(target.id)


# ---------------------------------------------------------------------------
# Workspace step validation (CG305) — the static face of the codegen
# strictness fix (generate_program raises CodegenError on the same keys).
# ---------------------------------------------------------------------------


def lint_workspace_steps(steps: Sequence,
                         config: Optional[LintConfig] = None) -> LintResult:
    """Check logged pipeline steps for unknown policy/cardinality keys."""
    from repro.chat.codegen import _CARDINALITY_EXPR, _POLICY_EXPR

    result = LintResult()
    emitter = Emitter(result, config)
    for index, step in enumerate(steps):
        location = f"step[{index}] {step.kind}"
        if step.kind == "policy":
            target = str(step.params.get("target", "quality")).lower()
            if target not in _POLICY_EXPR:
                emitter.emit(
                    "CG305",
                    f"unknown optimization target {target!r}; "
                    f"expected one of {sorted(_POLICY_EXPR)}",
                    location=location,
                )
        elif step.kind == "convert":
            cardinality = str(
                step.params.get("cardinality", "one_to_one")
            ).lower()
            if cardinality not in _CARDINALITY_EXPR:
                emitter.emit(
                    "CG305",
                    f"unknown cardinality {cardinality!r}; "
                    f"expected one of {sorted(_CARDINALITY_EXPR)}",
                    location=location,
                )
    return result


# ---------------------------------------------------------------------------
# Notebook (.ipynb) validation.
# ---------------------------------------------------------------------------

_CELL_TYPES = {"markdown", "code"}


def lint_notebook(
    notebook: Union[Dict[str, Any], str, Path],
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Validate an exported ``.ipynb`` document (dict, JSON text, or path)."""
    result = LintResult()
    emitter = Emitter(result, config)
    name = "notebook"

    if isinstance(notebook, Path) or (
        isinstance(notebook, str) and notebook.lstrip()[:1] != "{"
    ):
        path = Path(notebook)
        name = path.name
        try:
            notebook = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            emitter.emit(
                "CG310",
                f"cannot read notebook: {exc}",
                location=name,
            )
            return result
    elif isinstance(notebook, str):
        try:
            notebook = json.loads(notebook)
        except json.JSONDecodeError as exc:
            emitter.emit("CG310", f"notebook is not valid JSON: {exc}",
                         location=name)
            return result

    if not isinstance(notebook, dict):
        emitter.emit("CG310", "notebook must be a JSON object",
                     location=name)
        return result

    if notebook.get("nbformat") != 4:
        emitter.emit(
            "CG310",
            f"nbformat must be 4, got {notebook.get('nbformat')!r}",
            location=name,
        )
    kernelspec = (notebook.get("metadata") or {}).get("kernelspec") or {}
    for key in ("display_name", "language", "name"):
        if key not in kernelspec:
            emitter.emit(
                "CG310",
                f"metadata.kernelspec is missing {key!r}",
                location=name,
                hint="exported notebooks need a kernelspec so Jupyter "
                     "can replay them",
            )

    cells = notebook.get("cells")
    if not isinstance(cells, list):
        emitter.emit("CG310", "notebook has no cells list", location=name)
        return result

    generated: List[List[str]] = []
    for index, cell in enumerate(cells):
        location = f"{name} cell[{index}]"
        if not isinstance(cell, dict):
            emitter.emit("CG311", "cell is not an object", location=location)
            continue
        cell_type = cell.get("cell_type")
        if cell_type not in _CELL_TYPES:
            emitter.emit(
                "CG311",
                f"unknown cell_type {cell_type!r}; "
                f"expected one of {sorted(_CELL_TYPES)}",
                location=location,
            )
            continue
        source = cell.get("source")
        if not isinstance(source, (str, list)) or (
            isinstance(source, list)
            and not all(isinstance(line, str) for line in source)
        ):
            emitter.emit(
                "CG311",
                "cell source must be a string or a list of strings",
                location=location,
            )
            continue
        text = source if isinstance(source, str) else "".join(source)
        if cell_type == "markdown":
            if "outputs" in cell or "execution_count" in cell:
                emitter.emit(
                    "CG311",
                    "markdown cells may not carry outputs or "
                    "execution_count",
                    location=location,
                )
            continue
        # code cell
        for key in ("outputs", "execution_count"):
            if key not in cell:
                emitter.emit(
                    "CG311",
                    f"code cell is missing {key!r}",
                    location=location,
                )
        if text.startswith(GENERATED_HEADER):
            lines = text.rstrip().splitlines()
            if generated and lines[:len(generated[-1])] != generated[-1]:
                emitter.emit(
                    "CG312",
                    "generated program does not extend the previous one; "
                    "replaying the notebook top to bottom will not "
                    "reproduce the session monotonically",
                    location=location,
                    hint="a pipeline reset mid-session breaks monotonic "
                         "replay; export before resetting to keep a "
                         "replayable artifact",
                )
            generated.append(lines)
            result.extend(
                lint_program(text, config=config,
                             filename=f"{name}:cell[{index}]")
            )
    return result
