"""pz-lint: static analysis for pipelines, tools, and generated code.

Four analyzer families share one diagnostics vocabulary:

* ``PZ1xx`` (:mod:`repro.analysis.plan_lint`) — schema-dataflow checks
  over logical plans, run by the optimizer before execution.
* ``AG2xx`` (:mod:`repro.analysis.agent_lint`) — docstring/signature
  agreement for registered tools and ``{{var}}`` template validity.
* ``CG3xx`` (:mod:`repro.analysis.codegen_lint`) — AST checks over
  generated programs and structural checks over exported notebooks.
* ``CC5xx`` (:mod:`repro.analysis.concurrency`) — nondeterminism
  sources (wall clock, entropy, ``id()`` leaks, unordered iteration)
  over engine source and generated programs.

``repro lint`` (the CLI) drives them all; see ``docs/diagnostics.md``
for the full rule table.
"""

from repro.analysis.diagnostics import (
    DEFAULT_CONFIG,
    Diagnostic,
    Emitter,
    LintConfig,
    LintError,
    LintResult,
    Rule,
    Severity,
    all_rules,
    get_rule,
    register_rule,
)

# Importing the analyzer modules registers their rules.
from repro.analysis.plan_lint import lint_plan
from repro.analysis.agent_lint import (
    lint_registry,
    lint_template,
    lint_tool,
)
from repro.analysis.codegen_lint import (
    lint_notebook,
    lint_program,
    lint_workspace_steps,
)
from repro.analysis.concurrency import lint_source_concurrency

__all__ = [
    "DEFAULT_CONFIG",
    "Diagnostic",
    "Emitter",
    "LintConfig",
    "LintError",
    "LintResult",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "register_rule",
    "lint_plan",
    "lint_registry",
    "lint_template",
    "lint_tool",
    "lint_notebook",
    "lint_program",
    "lint_source_concurrency",
    "lint_workspace_steps",
]
