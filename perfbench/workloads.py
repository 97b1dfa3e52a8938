"""The history-sweep workloads: set-up, one timed sweep, output checks.

A *sweep* runs every history of a workload once through
``VersionHistoryRunner(include_full=True)``, one history after another,
each from the same starting state: a fresh ``ConstraintSolver`` and
``SummaryCache``, a cold scheduler cost model and, in ``store-resume``, a
fresh byte copy of the seed store.  One *operation* is one version of a
history in a timed sweep: its directed leg plus its full leg.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import oracle
import layers

#: History name -> ``repro.artifacts`` factory.
ARTIFACTS = {
    "ASW": "asw_artifact",
    "WBS": "wbs_artifact",
    "OAE": "oae_artifact",
    "ASW-CALLS": "asw_calls_artifact",
    "FCS": "fcs_artifact",
}


@dataclass(frozen=True)
class Workload:
    name: str
    histories: Tuple[str, ...]
    workers: int = 1
    #: Resume each history from a seed store that set-up writes.
    resume: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solver-sweep", ("ASW", "ASW-CALLS")),
        Workload("record-sweep", ("FCS", "OAE")),
        Workload("store-resume", ("ASW", "WBS", "OAE", "ASW-CALLS"), resume=True),
        Workload("pool-sweep", ("ASW", "WBS", "OAE"), workers=2),
        # Baselines for the README's reference figures (not in BENCHMARK.json):
        # store-resume's histories cold, and pool-sweep's at workers=1 (the
        # cached serial pipeline).
        Workload("store-cold", ("ASW", "WBS", "OAE", "ASW-CALLS")),
        Workload("pool-serial", ("ASW", "WBS", "OAE")),
    )
}

#: Seeded random inputs per version for the partition check.
PARTITION_INPUTS = 32


@dataclass
class VersionOutcome:
    history: str
    version: str
    directed_seconds: float
    directed: Tuple[str, ...]
    full: Tuple[str, ...]
    #: Why the operation failed before any output check ran (it raised, or
    #: a leg reported a degraded run); None when it completed.
    error: Optional[str] = None


@dataclass
class SweepResult:
    wall: float
    cpu: float
    versions: List[VersionOutcome] = field(default_factory=list)
    #: History -> (states, solver queries, cache hits, cache misses); serial
    #: sweeps start from identical state, so these repeat exactly.
    counts: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Report counters summed over the sweep's histories (see ``_totals``).
    totals: Dict[str, int] = field(default_factory=dict)
    #: Summed size of the working stores after the sweep (store-resume).
    store_bytes: int = 0


def _totals(report) -> Dict[str, int]:
    """The per-layer counters one history's report carries."""
    legs = [report.seed] + [leg for row in report.versions for leg in (row.dise, row.full)]
    return {
        "states": sum(leg["states"] for leg in legs),
        "replayed_paths": sum(leg["replayed_paths"] for leg in legs),
        "store_loaded": report.cache.get("store_loaded", 0),
        "store_hits": report.cache.get("store_hits", 0),
        "shards": report.parallel.get("shards", 0),
        "inline": report.parallel.get("cost_inline", 0),
        "failed_shards": report.parallel.get("failed_shards", 0),
    }


def _degraded(result) -> bool:
    statistics = getattr(result, "execution", result).statistics
    return bool(statistics.degraded_decisions or statistics.deadline_exhausted)


class Bench:
    """One workload's set-up, timed sweeps and output checks in this process."""

    def __init__(self, workload: Workload, work_dir: str, seed: int):
        from repro import artifacts
        from repro.evolution.history import VersionHistoryRunner
        from repro.parallel import shard
        from repro.solver import terms
        from repro.solver.core import ConstraintSolver, SolverError
        from repro.symexec.summary_cache import SummaryCache

        self.workload = workload
        self.work_dir = work_dir
        self.seed = seed
        self._artifacts = artifacts
        self._runner = VersionHistoryRunner
        self._shard = shard
        self._terms = terms
        self._solver = ConstraintSolver
        self._solver_error = SolverError
        self._cache = SummaryCache
        self.histories: Dict[str, object] = {}
        #: (history, version) -> (directed PCs, full PCs) of a fresh serial run.
        self.reference: Dict[Tuple[str, str], Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}
        self._seen_outputs: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: (seconds, degraded) per leg, in call order, of the history running now.
        self._legs: List[Tuple[float, bool]] = []
        self._capture = layers.Patcher()
        self._capture.install(
            (("directed", "repro.core.dise:DiSE.run"),
             ("full", "repro.symexec.engine:symbolic_execute")),
            self._recording_legs,
        )

    def close(self) -> None:
        self._capture.uninstall()
        self._shard.shutdown_pools()

    def _recording_legs(self, layer, function):
        """Wrap one leg's entry point to note its wall time and whether it degraded."""
        legs = self._legs

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = function(*args, **kwargs)
            legs.append((time.perf_counter() - started, _degraded(result)))
            return result

        return wrapper

    # -- set-up ----------------------------------------------------------------

    def _seed_path(self, history: str) -> str:
        return os.path.join(self.work_dir, f"{history}.seed.store")

    def store_path(self, history: str) -> str:
        return os.path.join(self.work_dir, f"{history}.store")

    def prepare(self) -> None:
        """Everything a timed sweep needs; repeating it starts over."""
        self.histories = {
            name: getattr(self._artifacts, ARTIFACTS[name])()
            for name in self.workload.histories
        }
        if self.workload.resume:
            # The seed stores come from a cold serial run that starts with an
            # empty store; its path conditions are the fresh serial reference.
            for name in self.workload.histories:
                if os.path.exists(self._seed_path(name)):
                    os.remove(self._seed_path(name))
            self.reference = self._serial_outputs(store=True)
        if self.workload.workers > 1:
            self._shard.shutdown_pools()
            self._shard.warm_pool(self.workload.workers)

    def _serial_outputs(self, store: bool):
        outputs = {}
        for name, artifact in self.histories.items():
            report = self._runner(
                artifact,
                include_full=True,
                solver=self._solver(),
                summary_cache=self._cache(),
                store_path=self._seed_path(name) if store else None,
            ).run()
            for row in report.versions:
                outputs[(name, row.version)] = (row.dise_distinct_pcs, row.full_distinct_pcs)
        return outputs

    # -- one timed sweep -------------------------------------------------------

    def _reset(self) -> None:
        # Collect first, so garbage of set-up or of the previous sweep is not
        # collected inside this one and every sweep starts the collector at
        # the same point.
        gc.collect()
        self._shard.reset_scheduler_cost_model()
        if self.workload.resume:
            for name in self.workload.histories:
                shutil.copyfile(self._seed_path(name), self.store_path(name))

    def sweep(self, frame=None) -> SweepResult:
        """Run one timed sweep; ``frame`` (a context manager) spans its timed part."""
        self._reset()
        finished = []
        workers_cpu = _children_cpu() if self.workload.workers > 1 else 0.0
        with frame or contextlib.nullcontext():
            cpu = time.process_time()
            started = time.perf_counter()
            for name, artifact in self.histories.items():
                solver = self._solver()
                cache = self._cache()
                self._legs.clear()
                runner = self._runner(
                    artifact,
                    include_full=True,
                    solver=solver,
                    summary_cache=cache,
                    workers=self.workload.workers,
                    store_path=self.store_path(name) if self.workload.resume else None,
                )
                try:
                    finished.append((name, runner.run(), list(self._legs), solver, cache))
                except Exception as exc:  # an operation that raises fails, the run goes on
                    finished.append((name, exc, [], solver, cache))
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu
        if self.workload.workers > 1:
            cpu += _children_cpu() - workers_cpu

        # Reports are reduced to what the checks and metrics read, so the
        # heap the next sweep's collector walks does not grow.
        result = SweepResult(wall, cpu)
        for name, report, legs, solver, cache in finished:
            if isinstance(report, Exception):
                result.versions.extend(self._failed_history(name, self.histories[name], report))
                continue
            for row in report.versions:
                # Identical output of an earlier sweep is kept once, so memory
                # does not grow with the number of sweeps in a run.
                row.dise_distinct_pcs = self._canonical(row.dise_distinct_pcs)
                row.full_distinct_pcs = self._canonical(row.full_distinct_pcs)
            result.versions.extend(self._outcomes(name, report, legs))
            totals = _totals(report)
            result.counts[name] = (
                totals["states"],
                solver.statistics.queries,
                cache.statistics.hits,
                cache.statistics.misses,
            )
            for counter, value in totals.items():
                result.totals[counter] = result.totals.get(counter, 0) + value
        if self.workload.resume:
            result.store_bytes = sum(
                os.path.getsize(self.store_path(name)) for name in self.workload.histories
            )
        return result

    def _canonical(self, outputs: Tuple[str, ...]) -> Tuple[str, ...]:
        return self._seen_outputs.setdefault(outputs, outputs)

    def _failed_history(self, name, artifact, exc) -> List[VersionOutcome]:
        reason = f"raised {type(exc).__name__}: {exc}"
        names = [version for version, _, _, _ in artifact.history()][1:]
        return [VersionOutcome(name, version, 0.0, (), (), reason) for version in names]

    @staticmethod
    def _outcomes(name, report, legs: List[Tuple[float, bool]]) -> List[VersionOutcome]:
        expected = 1 + 2 * len(report.versions)
        outcomes = []
        for index, row in enumerate(report.versions):
            error = None
            directed_seconds = 0.0
            if len(legs) != expected:
                error = f"{len(legs)} legs ran, {expected} expected"
            else:
                directed_seconds, directed_degraded = legs[1 + 2 * index]
                if directed_degraded or legs[2 + 2 * index][1]:
                    error = "degraded run"
            outcomes.append(
                VersionOutcome(
                    name,
                    row.version,
                    directed_seconds,
                    row.dise_distinct_pcs,
                    row.full_distinct_pcs,
                    error,
                )
            )
        return outcomes

    # -- output checks (untimed) -----------------------------------------------

    def check(self, sweeps: List[SweepResult]) -> Dict[Tuple[int, int], str]:
        """(sweep index, operation index) -> reason, for every failed operation."""
        failures: Dict[Tuple[int, int], str] = {}
        if self.workload.workers > 1 and not self.reference:
            self.reference = self._serial_outputs(store=False)
        table = oracle.TermTable()
        solver = self._solver()
        verdicts: Dict[tuple, Optional[str]] = {}
        for sweep_index, sweep in enumerate(sweeps):
            for op_index, outcome in enumerate(sweep.versions):
                if outcome.error is not None:
                    failures[(sweep_index, op_index)] = outcome.error
                    continue
                key = (outcome.history, outcome.version, outcome.directed, outcome.full)
                if key not in verdicts:
                    verdicts[key] = self._check_version(table, solver, outcome)
                if verdicts[key] is not None:
                    failures[(sweep_index, op_index)] = verdicts[key]
        if self.workload.workers == 1:
            self._check_counts(sweeps, failures)
        return failures

    def _check_version(self, table, solver, outcome: VersionOutcome) -> Optional[str]:
        rng = random.Random(f"{self.seed}:{outcome.history}:{outcome.version}")

        def solve(conjuncts):
            try:
                result = solver.check(oracle.to_program_terms(table, conjuncts, self._terms))
            except self._solver_error:
                return None
            return result.model if result.satisfiable else None

        reasons = [
            oracle.check_models(table, outcome.directed, solve),
            oracle.check_partition(table, outcome.full, PARTITION_INPUTS, rng),
            oracle.check_subset(outcome.directed, outcome.full),
        ]
        if self.workload.resume or self.workload.workers > 1:
            reasons.append(
                oracle.check_reference(
                    (outcome.directed, outcome.full),
                    self.reference.get((outcome.history, outcome.version)),
                )
            )
        failed = [reason for reason in reasons if reason is not None]
        return "; ".join(failed) if failed else None

    @staticmethod
    def _check_counts(sweeps: List[SweepResult], failures) -> None:
        """Serial sweeps start from identical state, so their counts repeat."""
        first = sweeps[0].counts
        for sweep_index, sweep in enumerate(sweeps[1:], start=1):
            for op_index, outcome in enumerate(sweep.versions):
                got = sweep.counts.get(outcome.history)
                if got is not None and got != first.get(outcome.history):
                    failures.setdefault(
                        (sweep_index, op_index),
                        f"{outcome.history} counts {got} differ from the first sweep's "
                        f"{first.get(outcome.history)}",
                    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_cpu() -> float:
    """User+system CPU seconds of this process's live child processes."""
    import multiprocessing

    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / ticks
