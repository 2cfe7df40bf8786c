"""The pipeline workspace: state a chat conversation builds up.

The step log is the only record of a conversation's pipeline: every live
field of :class:`PipelineWorkspace` is a fold over it, applied one step at
a time by :meth:`PipelineWorkspace.log_step`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type

from repro.core.cardinality import Cardinality
from repro.core.dataset import Dataset
from repro.core.schemas import Schema, make_schema
from repro.obs.registry import RunStore
from repro.optimizer.policies import MaxQuality, Policy, parse_policy
from repro.physical.options import ExecutionOptions

#: Step kinds that recorded a run; their ``result_id`` names it.
_RUN_STEPS = ("execute", "rerun")

#: How many of a session's runs a reset keeps (the newest ones).
KEEP_RUNS = 8


@dataclass(frozen=True)
class PipelineStep:
    """One logical step the conversation took (folded, rendered, saved).

    Steps are append-only and never change once logged.
    """

    kind: str  # "load" | "filter" | "schema" | "convert" | "policy" | ...
    params: Dict[str, Any] = field(default_factory=dict)


def fold_options(options: ExecutionOptions,
                 step: PipelineStep) -> ExecutionOptions:
    """The execution options in effect after ``step`` (the
    ``parallelism`` and ``execution_mode`` steps change them; an invalid
    setting raises ValueError)."""
    params = step.params
    if step.kind == "parallelism":
        return dataclasses.replace(options,
                                   max_workers=int(params["workers"]))
    if step.kind == "execution_mode":
        return ExecutionOptions(
            params.get("executor"), options.max_workers,
            int(params.get("batch_size", 1)), params.get("shards"),
        )
    return options


class PipelineWorkspace:
    """Mutable state shared by the PalimpChat tools.

    :attr:`steps` is the conversation's pipeline; the live fields
    (``current``, ``schemas``, ``policy``, ``options``,
    ``current_run_id``) are what :meth:`log_step` folded from it, so
    :meth:`replay` rebuilds them from any prefix of it (resume, restore).
    The ids of the runs the session made live beside the log, the runs
    themselves in :attr:`runs`.
    """

    def __init__(self):
        self.replay([])
        #: Ids of every run this session made, in order; compare_runs
        #: diffs the last two.  A reset keeps the newest
        #: :data:`KEEP_RUNS` of them — the runs happened even if the
        #: pipeline is discarded.
        self.run_ids: List[str] = []
        #: Where the runs live (see ``runs_dir``).
        self.runs = RunStore()
        #: Shared :class:`~repro.llm.usage.BudgetMeter` (tenant quota)
        #: executions charge; None = unmetered.
        self.budget: Optional[Any] = None
        #: Progress callback executions forward executor events to
        #: (``plan_start``/``record_processed``/.../``plan_end``) — the
        #: hook a serving layer streams to clients.
        self.on_progress: Optional[Any] = None
        #: Wall-clock operational telemetry
        #: (:class:`~repro.obs.telemetry.Telemetry`) the serving layer
        #: attaches; executions time optimize/execute phases into it.
        #: None = no operational telemetry (the default, and the only
        #: mode deterministic tests compare against — telemetry may
        #: never influence records/stats/traces/provenance).
        self.telemetry: Optional[Any] = None

    def _start_over(self) -> None:
        """The pipeline fields before any step, and after a reset (which
        keeps the options)."""
        self.current: Optional[Dataset] = None
        self.schemas: Dict[str, Type[Schema]] = {}
        self.policy: Policy = MaxQuality()
        #: The run of the last ``execute``/``rerun`` step since the last
        #: reset (the current result), or None.
        self.current_run_id: Optional[str] = None

    # -- the step log ------------------------------------------------------

    def log_step(self, kind: str, **params) -> PipelineStep:
        """Apply one step to the live fields, then log it.

        This is the fold every live field is built by: the tools call it
        for each step they take, and :meth:`replay` calls it to rebuild
        the fields from a log.  A step that does not apply raises, and is
        not logged; kinds it does not know are logged and change nothing.
        """
        step = PipelineStep(kind=kind, params=params)
        if kind == "load":
            self.current = Dataset(source=params["source"])
        elif kind == "filter":
            self.current = self._dataset(kind).filter(params["predicate"])
        elif kind == "convert":
            self.current = self._dataset(kind).convert(
                self.get_schema(params["schema"]),
                cardinality=Cardinality.parse(
                    params.get("cardinality", "one_to_one")),
            )
        elif kind == "schema":
            schema = make_schema(
                params["name"],
                params.get("description", ""),
                list(params.get("field_names", [])),
                field_descriptions=list(params.get("field_descriptions", [])),
            )
            self.schemas[schema.schema_name()] = schema
        elif kind == "policy":
            self.policy = parse_policy(params["target"])
        elif kind in _RUN_STEPS:
            self.current_run_id = params.get("result_id")
        elif kind == "reset":
            self._start_over()
        else:
            self.options = fold_options(self.options, step)
        self.steps.append(step)
        return step

    def _dataset(self, kind: str) -> Dataset:
        if self.current is None:
            raise ValueError(f"a {kind} step needs a loaded dataset")
        return self.current

    def replay(self, steps: List[PipelineStep]) -> None:
        """Rebuild the live fields and the log from ``steps``."""
        self.steps: List[PipelineStep] = []
        #: How pipelines run (executor, max_workers, batch_size, shards);
        #: folded from the parallelism / execution_mode steps.
        self.options = ExecutionOptions()
        self._start_over()
        for step in steps:
            self.log_step(step.kind, **step.params)

    def steps_of_kind(self, kind: str) -> List[PipelineStep]:
        return [s for s in self.steps if s.kind == kind]

    # -- runs ----------------------------------------------------------------

    @property
    def runs_dir(self) -> Optional[str]:
        """Where runs are recorded (None = in memory); setting it attaches
        a fresh :class:`~repro.obs.registry.RunStore` there."""
        return self.runs.runs_dir

    @runs_dir.setter
    def runs_dir(self, runs_dir: Optional[str]) -> None:
        self.runs = RunStore(runs_dir)

    def prune_runs(self) -> List[str]:
        """Keep the newest :data:`KEEP_RUNS` of this session's own runs.

        Drops the others from :attr:`run_ids` and from the run store (and
        from disk when a ``runs_dir`` is attached); runs other sessions
        recorded in a shared registry are never touched.  Returns the
        pruned run ids, oldest first.
        """
        doomed = self.run_ids[:max(0, len(self.run_ids) - KEEP_RUNS)]
        del self.run_ids[:len(doomed)]
        self.runs.drop(doomed)
        return doomed

    # -- schema registry -------------------------------------------------

    def get_schema(self, name: str) -> Type[Schema]:
        try:
            return self.schemas[name]
        except KeyError:
            raise KeyError(
                f"no schema named {name!r} has been created in this session; "
                f"known schemas: {sorted(self.schemas)}"
            ) from None

    @property
    def max_workers(self) -> int:
        return self.options.max_workers

    # -- disk persistence (service-layer session store) -------------------

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-able form: the step log (every step's params are
        primitives) and the session's run ids."""
        return {
            "steps": [
                {"kind": step.kind, "params": dict(step.params)}
                for step in self.steps
            ],
            "run_ids": list(self.run_ids),
        }

    def apply_payload(self, payload: Dict[str, Any]) -> None:
        """Rebuild the workspace from :meth:`to_payload` output by
        replaying its steps; ``execute``/``rerun`` steps are not re-run
        (their results live in the run store).  Other keys, such as the
        settings older payloads copied beside the steps, are ignored."""
        self.replay([
            PipelineStep(entry["kind"], dict(entry.get("params", {})))
            for entry in payload.get("steps", [])
        ])
        self.run_ids = list(payload.get("run_ids", [
            s.params["result_id"] for s in self.steps if s.kind in _RUN_STEPS
        ]))

    def describe_pipeline(self) -> str:
        if self.current is None:
            return "(no pipeline yet — load a dataset first)"
        plan = self.current.logical_plan().describe()
        return f"{plan}  [policy: {self.policy.describe()}]"
