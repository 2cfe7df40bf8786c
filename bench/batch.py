"""The library workloads: ``batch_plain``, ``batch_recorded``, ``incr_rerun``.

All three run ``pz.Execute`` over the synthetic scale corpus inside this
process (the subprocess ``run.py`` started for the workload), in whole
iterations until the stated time has elapsed.  Corpus generation, oracle
registration and output checks sit outside the timed region; the program
receives only the generated :class:`MemorySource`.
"""

from __future__ import annotations

import shutil
import time
from typing import List, Tuple

from common import (
    Outcome,
    machine_speed,
    median,
    mid,
    probe_s,
    scratch_root,
    self_peak_rss_mb,
    tail,
    tree_bytes,
    use_source_tree,
)

#: Documents per ``Execute``.  A unit has to be short beside the seconds
#: the machine stays at one speed, or the probes around it miss the change
#: (10k-document units, ~3 s, scaled no better than raw walls).
DOCS = 2_500
SMOKE_DOCS = 400
#: Base runs ``incr_rerun`` makes in set-up; ``setup_s`` is their median.
BASE_RUNS = 3
#: Leading corpora of a run whose result fingerprints are noted, and on
#: ``batch_recorded`` checked against a plain sequential ``Execute``.
FINGERPRINTS = 2

#: The flags chat's ``execute_pipeline`` always sets, on the threaded
#: schedule (the optimizer picks the shard degree).
RECORDED_FLAGS = dict(executor="sharded", batch_size=8, trace=True,
                      provenance=True, capture_calls=True)


def _pipeline(source):
    import repro as pz
    from repro.corpora.scale import SCALE_FIELDS, SCALE_PREDICATE

    schema = pz.make_schema("ScaleNote", "fields of a clinical note",
                            SCALE_FIELDS)
    return pz.Dataset(source).filter(SCALE_PREDICATE).convert(schema)


def fresh_corpus(docs: int, seed: int):
    """A corpus whose truths are the only ones the oracle holds, so memory
    stays flat however many iterations fit into the run."""
    from repro.corpora.scale import generate_scale_source
    from repro.llm.oracle import global_oracle

    global_oracle().clear()
    return generate_scale_source(docs, seed=seed)


def _timed_corpus(docs: int, seed: int) -> Tuple[object, float]:
    started = time.perf_counter()
    source = fresh_corpus(docs, seed)
    return source, time.perf_counter() - started


def check_records(records, docs: int, seed: int, outcome: Outcome,
                  what: str) -> None:
    """Output against the corpus truth, independent of the program.

    A record is exact when its cohort names a relevant note of *this*
    corpus and its stage follows the generator's cycle.  The simulated
    models err on about 1 % of notes, so at least 95 % of the relevant
    notes must come out exact, at least 95 % of the output must be exact,
    and no note may appear twice.
    """
    from repro.corpora.scale import RELEVANT_EVERY

    stages = ("I", "II", "III", "IV")
    relevant = len(range(0, docs, RELEVANT_EVERY))
    seen = set()
    exact = 0
    for record in records:
        prefix, _, index = str(record.get("cohort") or "").rpartition("-")
        if prefix != f"SC-{seed}" or not index.isdigit():
            continue
        number = int(index)
        if number in seen:
            exact = -1
            break
        seen.add(number)
        exact += (number < docs and number % RELEVANT_EVERY == 0
                  and record.get("stage") == stages[number % 4])
    outcome.check(
        exact >= 0.95 * relevant and exact >= 0.95 * len(records),
        f"{what}: {exact} exact of {len(records)} records, "
        f"{relevant} relevant notes")


def _signature(meta: dict) -> Tuple[str, float, int]:
    """(result fingerprint, simulated cost, LLM calls) of a run's meta."""
    return meta["result_fp"], meta["total_cost_usd"], meta["llm_calls"]


def _fingerprint(records, stats) -> Tuple[str, float, int]:
    from repro.obs.registry import RunSnapshot

    return _signature(
        RunSnapshot.from_execution("check", records, stats).meta)


class Units:
    """The timed units of one run: raw walls, and walls scaled to the
    reference machine by the calibration probes around each unit
    (:func:`common.machine_speed`).  Metrics come from the scaled walls;
    the raw ones decide when the run has measured long enough and are
    printed as notes."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.walls: List[float] = []
        self.exec_walls: List[float] = []
        self._mark = 0.0
        self._before = 0.0

    def begin(self) -> None:
        self._before = probe_s()
        self._mark = time.perf_counter()

    def split(self) -> float:
        """Seconds since :meth:`begin` (the clock keeps running)."""
        return time.perf_counter() - self._mark

    def end(self, executed: float = 0.0) -> float:
        """Close the unit and return the machine speed it ran at.

        ``executed`` is the :meth:`split` taken when ``Execute`` returned,
        for units that do more than execute.
        """
        wall = self.split()
        speed = machine_speed(self._before, probe_s())
        self.raw.append(wall)
        self.walls.append(wall * speed)
        self.exec_walls.append((executed or wall) * speed)
        return speed

    def report(self, outcome: Outcome, docs: int,
               setups: List[float]) -> None:
        count = len(self.walls)
        outcome.put("throughput_per_s", docs * count / sum(self.walls), count)
        outcome.put("latency_mid_ms", mid(self.walls) * 1000.0, count)
        outcome.put("latency_tail_ms", tail(self.walls) * 1000.0, count)
        outcome.put("exec_mid_ms", mid(self.exec_walls) * 1000.0, count)
        outcome.put("setup_s", median(setups), len(setups))
        outcome.put("peak_rss_mb", self_peak_rss_mb())
        outcome.notes["raw_throughput_per_s"] = round(
            docs * count / sum(self.raw), 2)
        outcome.notes["machine_speed"] = round(
            sum(self.walls) / sum(self.raw), 4)


def _warm_up(docs: int, seed: int, **flags) -> None:
    import repro as pz

    pz.Execute(_pipeline(fresh_corpus(max(50, docs // 5), seed)),
               policy=pz.MaxQuality(), **flags)


def run_plain(seed: int, seconds: float, smoke: bool = False) -> Outcome:
    use_source_tree()
    import repro as pz

    docs = SMOKE_DOCS if smoke else DOCS
    outcome = Outcome()
    _warm_up(docs, seed + 800)
    units = Units()
    setups: List[float] = []
    while sum(units.raw) < seconds:  # timed work only
        corpus_seed = seed + len(units.raw)  # no document repeats
        source, setup = _timed_corpus(docs, corpus_seed)
        pipeline = _pipeline(source)
        units.begin()
        records, stats = pz.Execute(pipeline, policy=pz.MaxQuality())
        setups.append(setup * units.end())
        check_records(records, docs, corpus_seed, outcome,
                      f"batch_plain seed {corpus_seed}")
        if len(units.raw) <= FINGERPRINTS:
            outcome.notes.setdefault("fingerprints", []).append(
                _fingerprint(records, stats)[0])
    units.report(outcome, docs, setups)
    return outcome


def run_recorded(seed: int, seconds: float, smoke: bool = False) -> Outcome:
    use_source_tree()
    import repro as pz
    from repro.obs.registry import RunRegistry

    docs = SMOKE_DOCS if smoke else DOCS
    outcome = Outcome()
    _warm_up(docs, seed + 800, **RECORDED_FLAGS)
    units = Units()
    setups: List[float] = []
    stored: List[float] = []
    with scratch_root("batch_recorded") as root:
        while sum(units.raw) < seconds:  # timed work only
            corpus_seed = seed + len(units.raw)
            source, setup = _timed_corpus(docs, corpus_seed)
            pipeline = _pipeline(source)
            registry = RunRegistry(str(root / f"runs-{len(units.raw)}"))
            units.begin()
            records, stats = pz.Execute(pipeline, policy=pz.MaxQuality(),
                                        **RECORDED_FLAGS)
            executed = units.split()
            snapshot = registry.record(records, stats)
            window = registry.handle(snapshot.run_id).slice(0, 50)
            loaded = registry.load(snapshot.run_id)
            setups.append(setup * units.end(executed))
            stored.append(tree_bytes(registry.root) / max(1, len(records)))
            check_records(records, docs, corpus_seed, outcome,
                          f"batch_recorded seed {corpus_seed}")
            outcome.check(
                loaded.records == snapshot.records
                and window == snapshot.records[:50]
                and loaded.meta["result_fp"] == snapshot.meta["result_fp"]
                and loaded.graph is not None and loaded.trace is not None
                and bool(loaded.calls) and bool(loaded.manifest),
                "registry round-trip differs from the recorded snapshot")
            if len(units.raw) <= FINGERPRINTS:
                # The threaded, observed schedule must produce what the
                # plain sequential one does (checked on the first corpora
                # of each run; every corpus would double the run).
                plain = _fingerprint(
                    *pz.Execute(pipeline, policy=pz.MaxQuality()))
                outcome.check(
                    plain == _signature(snapshot.meta),
                    f"batch_recorded differs from batch_plain: {plain}")
                outcome.notes.setdefault("fingerprints", []).append(
                    snapshot.meta["result_fp"])
            del loaded, snapshot, window, records, stats
            shutil.rmtree(registry.root, ignore_errors=True)
    units.report(outcome, docs, setups)
    outcome.notes["stored_bytes_per_record"] = round(median(stored), 2)
    return outcome


def mutated_corpus(docs: int, seed: int, base_id: str):
    """~1 % of the corpus drifts: a third each adds, edits and drops."""
    from repro.corpora.scale import mutate_scale_source

    third = max(1, docs // 300)
    return mutate_scale_source(docs, seed=seed, adds=third, edits=third,
                               drops=third, dataset_id=base_id)


def run_incremental(seed: int, seconds: float, smoke: bool = False) -> Outcome:
    use_source_tree()
    import repro as pz
    from repro.obs.registry import RunSnapshot

    docs = SMOKE_DOCS if smoke else DOCS
    outcome = Outcome()
    _warm_up(docs, seed + 800)
    # Set-up: the base run every re-run replays from (the last one made).
    # Earlier ones run on corpora of their own, so each starts as cold.
    bases = Units()
    for corpus_seed in [seed + 900 + i for i in
                        range(0 if smoke else BASE_RUNS - 1)] + [seed]:
        bases.begin()
        source = fresh_corpus(docs, corpus_seed)
        records, stats = pz.Execute(_pipeline(source), policy=pz.MaxQuality(),
                                    capture_calls=True)
        base = RunSnapshot.from_execution("run-0001", records, stats)
        bases.end()
    check_records(records, docs, seed, outcome, "incr_rerun base run")
    # Reference: a cold run over the drifted corpus (check only, untimed).
    cold = _fingerprint(*pz.Execute(
        _pipeline(mutated_corpus(docs, seed, source.dataset_id)),
        policy=pz.MaxQuality()))
    units = Units()
    live = 0
    while sum(units.raw) < seconds:  # timed work only
        drifted = mutated_corpus(docs, seed, source.dataset_id)
        live = len(drifted)
        pipeline = _pipeline(drifted)
        units.begin()
        records, stats = pz.Execute(pipeline, policy=pz.MaxQuality(),
                                    incremental=True, base_run=base)
        units.end()
        report = stats.incremental
        fingerprint, cost, calls = _fingerprint(records, stats)
        outcome.check(
            report.mode == "replay"
            and report.replayed_calls + report.fresh_calls == cold[2]
            and report.fresh_calls < 0.05 * cold[2]
            and (fingerprint, cost) == cold[:2],
            f"incr_rerun: mode {report.mode}, "
            f"{report.replayed_calls}+{report.fresh_calls} calls vs "
            f"{cold[2]} cold, fingerprint {fingerprint} vs {cold[0]}")
    units.report(outcome, live, bases.walls)
    return outcome


RUNNERS = {
    "batch_plain": run_plain,
    "batch_recorded": run_recorded,
    "incr_rerun": run_incremental,
}
