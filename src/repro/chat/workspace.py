"""The pipeline workspace: state a chat conversation builds up."""

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

#: What a Beaker-style snapshot captures.  The run store and root are
#: part of it: a restore keeps pointing at the same runs.
_SNAPSHOT = ("current", "schemas", "policy", "options", "sample_size",
             "steps", "root", "runs", "keep_runs")


@dataclass(frozen=True)
class PipelineStep:
    """One logical step the conversation added (used for codegen/replay).

    Steps are append-only and never change once logged, so snapshots of
    the step log share them.
    """

    kind: str  # "load" | "filter" | "schema" | "convert" | "policy" | ...
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"{self.kind}({inner})"


def fold_options(options: ExecutionOptions,
                 step: PipelineStep) -> ExecutionOptions:
    """The execution options in effect after ``step`` (the
    ``parallelism`` and ``execution_mode`` steps change them)."""
    params = step.params
    if step.kind == "parallelism":
        return dataclasses.replace(options,
                                   max_workers=int(params["workers"]))
    if step.kind == "execution_mode":
        return ExecutionOptions.normalized(
            params.get("executor"), options.max_workers,
            int(params.get("batch_size", 1)), params.get("shards"),
        )
    return options


class PipelineWorkspace:
    """Mutable state shared by the PalimpChat tools.

    Tracks the dataset pipeline under construction, the dynamically created
    schemas, the optimization policy, and the ids of the runs it made (the
    runs themselves live in :attr:`runs`).  Snapshots support the
    Beaker-style "restore previous notebook state" feature.
    """

    def __init__(self):
        self.current: Optional[Dataset] = None
        self.schemas: Dict[str, Type[Schema]] = {}
        self.policy: Policy = MaxQuality()
        #: How pipelines run (executor, max_workers, batch_size, shards);
        #: set by the set_parallelism / set_execution_mode tools.
        self.options = ExecutionOptions()
        self.sample_size: int = 0
        self.steps: List[PipelineStep] = []
        #: Ids of every run this session made, in order; compare_runs
        #: diffs the last two.  Survives reset() — the runs happened even
        #: if the pipeline is discarded.
        self.run_ids: List[str] = []
        #: Where the runs live (see ``runs_dir``).
        self.runs = RunStore()
        #: Retention applied on reset(): how many of this session's runs
        #: survive a workspace reset.
        self.keep_runs: int = 8
        #: State root this workspace lives under (e.g. a tenant's
        #: ``.repro/tenants/<id>/``); ``attach_root`` derives runs_dir
        #: from it.  None = runs stay in memory.  Two workspaces with
        #: different roots never share registries.
        self.root: Optional[str] = None
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

    # -- step log ----------------------------------------------------------

    def log_step(self, kind: str, **params) -> PipelineStep:
        step = PipelineStep(kind=kind, params=params)
        self.steps.append(step)
        return step

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

    @property
    def current_run_id(self) -> Optional[str]:
        """The run of the last ``execute``/``rerun`` step (the current
        result), or None when the pipeline has not run."""
        for step in reversed(self.steps):
            if step.kind in _RUN_STEPS:
                return step.params["result_id"]
        return None

    # -- schema registry -------------------------------------------------

    def add_schema(self, schema: Type[Schema]) -> None:
        self.schemas[schema.schema_name()] = schema

    def get_schema(self, name: str) -> Type[Schema]:
        try:
            return self.schemas[name]
        except KeyError:
            raise KeyError(
                f"no schema named {name!r} has been created in this session; "
                f"known schemas: {sorted(self.schemas)}"
            ) from None

    # -- tenancy root -----------------------------------------------------

    def attach_root(self, root) -> None:
        """Pin this workspace's persistent state under ``root``.

        Sets ``root`` and derives ``runs_dir`` (``<root>/runs``) from it,
        so every workspace with a distinct root gets its own
        :class:`~repro.obs.registry.RunRegistry` — two tenants in one
        process never collide on the global ``.repro/`` default.
        """
        import os

        self.root = os.fspath(root)
        self.runs_dir = os.path.join(self.root, "runs")

    @property
    def max_workers(self) -> int:
        return self.options.max_workers

    # -- snapshots (Beaker-style state restore) ---------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Capture enough state to restore this point of the conversation
        (Datasets are immutable chains, options frozen, steps frozen)."""
        state = {name: getattr(self, name) for name in _SNAPSHOT}
        state.update(schemas=dict(self.schemas), steps=list(self.steps))
        return state

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Rewind to ``snapshot``; the current result becomes the run
        that was current then."""
        for name in _SNAPSHOT:
            setattr(self, name, snapshot[name])
        self.schemas = dict(self.schemas)
        self.steps = list(self.steps)

    # -- disk persistence (service-layer session store) -------------------

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-able snapshot: the step log plus execution settings.

        Unlike :meth:`snapshot` (which holds live objects for in-process
        restore), the payload survives a process restart: every step's
        params are primitives, and :meth:`apply_payload` replays them to
        rebuild the pipeline, schemas, and policy.
        """
        return {
            "steps": [
                {"kind": step.kind, "params": dict(step.params)}
                for step in self.steps
            ],
            "run_ids": list(self.run_ids),
            "policy": self.policy.describe(),
            "max_workers": self.options.max_workers,
            "executor": self.options.executor,
            "batch_size": self.options.batch_size,
            "shards": self.options.shards,
            "sample_size": self.sample_size,
            "keep_runs": self.keep_runs,
        }

    def apply_payload(self, payload: Dict[str, Any]) -> None:
        """Rebuild workspace state from :meth:`to_payload` output.

        Pipeline-building steps (load/schema/filter/convert/policy and
        the execution-mode settings) are replayed to reconstruct the
        live ``current`` dataset and schema registry; ``execute`` /
        ``rerun`` steps are kept in the log (codegen still shows them)
        but not re-run — their results live in the run store.
        """
        self.options = ExecutionOptions.normalized(
            payload.get("executor"), int(payload.get("max_workers", 1)),
            int(payload.get("batch_size", 1)), payload.get("shards"),
        )
        self.sample_size = int(payload.get("sample_size", 0))
        self.keep_runs = int(payload.get("keep_runs", self.keep_runs))
        self.current = None
        self.schemas = {}
        self.steps = []
        for entry in payload.get("steps", []):
            kind = entry["kind"]
            params = dict(entry.get("params", {}))
            step = PipelineStep(kind=kind, params=params)
            if kind == "load":
                self.current = Dataset(source=params["source"])
            elif kind == "schema":
                self.add_schema(make_schema(
                    params["name"],
                    params.get("description", ""),
                    list(params.get("field_names", [])),
                    field_descriptions=list(
                        params.get("field_descriptions", [])),
                ))
            elif kind == "filter" and self.current is not None:
                self.current = self.current.filter(params["predicate"])
            elif kind == "convert" and self.current is not None:
                self.current = self.current.convert(
                    self.get_schema(params["schema"]),
                    cardinality=Cardinality.parse(
                        params.get("cardinality", "one_to_one")),
                )
            elif kind == "policy":
                self.policy = parse_policy(params["target"])
            # Mode steps move the options; execute/rerun and unknown
            # kinds are log-only.
            self.options = fold_options(self.options, step)
            self.steps.append(step)
        self.run_ids = list(payload.get("run_ids", [
            s.params["result_id"] for s in self.steps if s.kind in _RUN_STEPS
        ]))
        if "policy" in payload and not any(
                s.kind == "policy" for s in self.steps):
            try:
                self.policy = parse_policy(payload["policy"])
            except ValueError:
                # Constrained policies (e.g. "max-quality@cost($1.00)")
                # don't parse back from describe(); keep the default —
                # a replayed "policy" step would have restored it above.
                pass

    def reset(self) -> None:
        self.current = None
        self.schemas = {}
        self.policy = MaxQuality()
        self.steps = []
        self.prune_runs()

    def prune_runs(self) -> List[str]:
        """Apply the ``keep_runs`` retention to this session's own runs.

        Drops all but the newest ``keep_runs`` of :attr:`run_ids` from the
        run store (and from disk when a ``runs_dir`` is attached); runs
        other sessions recorded in a shared registry are never touched.
        Returns the pruned run ids, oldest first.
        """
        if self.keep_runs is None:
            return []
        doomed = self.run_ids[:max(0, len(self.run_ids) - self.keep_runs)]
        del self.run_ids[:len(doomed)]
        self.runs.drop(doomed)
        return doomed

    def describe_pipeline(self) -> str:
        if self.current is None:
            return "(no pipeline yet — load a dataset first)"
        plan = self.current.logical_plan().describe()
        return f"{plan}  [policy: {self.policy.describe()}]"
