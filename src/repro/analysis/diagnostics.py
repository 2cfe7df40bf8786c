"""Diagnostics core for pz-lint, the repo's static analyzers.

PalimpChat's users compose pipelines through chat, so mistakes must
surface *before* an expensive plan executes — not as mid-run exceptions.
The analyzers in this package (:mod:`repro.analysis.plan_lint`,
:mod:`repro.analysis.agent_lint`, :mod:`repro.analysis.codegen_lint`)
share this module's vocabulary:

* :class:`Diagnostic` — one finding: rule code, severity, message,
  location, optional fix hint.
* :class:`Rule` / the rule registry — every rule code (``PZ1xx`` plan
  rules, ``AG2xx`` agent/tool rules, ``CG3xx`` codegen/notebook rules)
  is registered once with its default severity and a one-line summary.
* :class:`LintConfig` — per-rule enable/disable and severity overrides.
* :class:`LintResult` — an ordered collection of diagnostics with
  rendering and severity accessors.
* :class:`LintError` — raised by the optimizer when a plan has
  error-level diagnostics; carries the full :class:`LintResult`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.errors import PlanError


class Severity(enum.Enum):
    """How bad a finding is.  Errors block execution; warnings don't."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    @classmethod
    def parse(cls, value) -> "Severity":
        if isinstance(value, cls):
            return value
        needle = str(value).strip().lower()
        for member in cls:
            if needle == member.value:
                return member
        raise ValueError(f"unknown severity {value!r}")

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding."""

    code: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""

    def render(self) -> str:
        parts = [f"{self.severity.value}[{self.code}]"]
        if self.location:
            parts.append(f"{self.location}:")
        parts.append(self.message)
        text = " ".join(parts)
        if self.hint:
            text += f"  (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Rule:
    """A registered lint rule: identity, default severity, one-liner."""

    code: str
    name: str
    summary: str
    severity: Severity
    family: str = ""

    def describe(self) -> str:
        return f"{self.code} ({self.name}, {self.severity.value}): {self.summary}"


_RULES: Dict[str, Rule] = {}


def register_rule(code: str, name: str, summary: str,
                  severity: Severity) -> Rule:
    """Register a rule code (module import time).  Codes are unique."""
    if code in _RULES:
        raise ValueError(f"lint rule {code!r} is already registered")
    family = code.rstrip("0123456789")
    rule = Rule(code=code, name=name, summary=summary,
                severity=severity, family=family)
    _RULES[code] = rule
    return rule


def get_rule(code: str) -> Rule:
    try:
        return _RULES[code]
    except KeyError:
        raise KeyError(
            f"unknown lint rule {code!r}; known: {sorted(_RULES)}"
        ) from None


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by code."""
    return [_RULES[code] for code in sorted(_RULES)]


@dataclass(frozen=True)
class LintConfig:
    """Which rules run and at what severity.

    ``disabled`` entries may be exact codes (``"PZ102"``) or prefixes
    (``"PZ"`` disables the whole plan-lint family).
    """

    disabled: frozenset = frozenset()
    severity_overrides: Dict[str, Severity] = field(default_factory=dict)

    @classmethod
    def parse(cls, disable: Optional[str] = None) -> "LintConfig":
        """Build a config from a comma-separated ``--disable`` string."""
        codes = frozenset(
            token.strip().upper()
            for token in (disable or "").split(",")
            if token.strip()
        )
        return cls(disabled=codes)

    def is_enabled(self, code: str) -> bool:
        return not any(
            code == entry or code.startswith(entry)
            for entry in self.disabled
        )

    def family_enabled(self, family: str) -> bool:
        """Does any registered rule of ``family`` (e.g. ``"CC"``) run?"""
        return any(rule.family == family and self.is_enabled(rule.code)
                   for rule in _RULES.values())

    def severity_for(self, code: str) -> Severity:
        override = self.severity_overrides.get(code)
        return override if override is not None else get_rule(code).severity


DEFAULT_CONFIG = LintConfig()


class LintResult:
    """An ordered collection of diagnostics."""

    def __init__(self, diagnostics: Optional[Iterable[Diagnostic]] = None):
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])

    # -- building ---------------------------------------------------------

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintResult",
               location_prefix: str = "") -> None:
        for diagnostic in other.diagnostics:
            if location_prefix:
                where = (
                    f"{location_prefix}{diagnostic.location}"
                    if diagnostic.location else location_prefix.rstrip(": ")
                )
                diagnostic = replace(diagnostic, location=where)
            self.diagnostics.append(diagnostic)

    # -- accessors --------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """No error-level findings (warnings and infos are allowed)."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def sorted(self) -> "LintResult":
        return LintResult(
            sorted(self.diagnostics,
                   key=lambda d: (d.severity.rank, d.code, d.location))
        )

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        if not self.diagnostics:
            return "no findings"
        return "\n".join(d.render() for d in self.diagnostics)

    def summary(self) -> str:
        return (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.infos)} info(s)"
        )

    def by_family(self) -> Dict[str, List[Diagnostic]]:
        """Diagnostics grouped by rule family (``PZ``, ``AG``, ...)."""
        grouped: Dict[str, List[Diagnostic]] = {}
        for diagnostic in self.diagnostics:
            family = diagnostic.code.rstrip("0123456789")
            grouped.setdefault(family, []).append(diagnostic)
        return grouped

    def to_json(self) -> str:
        families = {
            family: {
                "findings": len(diagnostics),
                "errors": sum(
                    1 for d in diagnostics if d.severity is Severity.ERROR
                ),
                "warnings": sum(
                    1 for d in diagnostics if d.severity is Severity.WARNING
                ),
            }
            for family, diagnostics in sorted(self.by_family().items())
        }
        return json.dumps(
            {
                "diagnostics": [d.to_dict() for d in self.diagnostics],
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
                "families": families,
            },
        )

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:
        return f"LintResult({self.summary()})"


class Emitter:
    """Helper the analyzers use to emit config-filtered diagnostics."""

    def __init__(self, result: LintResult,
                 config: Optional[LintConfig] = None):
        self.result = result
        self.config = config or DEFAULT_CONFIG

    def emit(self, code: str, message: str, location: str = "",
             hint: str = "") -> None:
        if not self.config.is_enabled(code):
            return
        self.result.add(
            Diagnostic(
                code=code,
                severity=self.config.severity_for(code),
                message=message,
                location=location,
                hint=hint,
            )
        )


class LintError(PlanError):
    """A plan failed lint with error-level diagnostics.

    Subclasses :class:`~repro.core.errors.PlanError` so existing plan
    validation handlers catch it; carries the :class:`LintResult` so
    callers (the chat layer, the CLI) can render every finding.
    """

    def __init__(self, result: LintResult):
        self.result = result
        errors = result.errors
        super().__init__(
            f"plan lint found {len(errors)} error(s):\n"
            + "\n".join(d.render() for d in errors)
        )
