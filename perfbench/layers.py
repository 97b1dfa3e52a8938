"""Outside-in layer tracing: wrap public calls, keep spans, compute self time.

A :class:`Tracer` replaces a list of public functions and methods of the
program with thin wrappers that record one span per call -- layer name,
parent span, start, end and the sweep it belongs to -- and restores every
original on :meth:`Patcher.uninstall`.  Nothing inside the program changes.

A layer's *self time* is its spans' durations minus the time covered by
wrapped calls nested directly inside them.  Under one root span the self
times of all spans therefore add up exactly to the root's duration.

A call into the layer that is already the innermost open span (recursion,
or ``SolverContext.assume`` calling ``SolverContext.check``) records no
span of its own: it is part of the enclosing one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Tuple

#: (layer, target) pairs wrapped by the traced run.  A target is
#: ``"module:Class.method"`` or ``"module:function"``; a module function is
#: replaced in every loaded ``repro`` module that bound it by name.
LAYER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("solver.check", "repro.solver.core:ConstraintSolver.check"),
    ("solver.context", "repro.solver.context:SolverContext.check"),
    ("solver.context", "repro.solver.context:SolverContext.assume"),
    ("solver.context", "repro.solver.context:SolverContext.assume_is_satisfiable"),
    ("core.lookahead", "repro.core.lookahead:FeasibleReachability.reachable_targets"),
    # DiSE runs the affected-set analysis through the class that the public
    # ``compute_affected_sets`` wraps, so the class method is the boundary.
    ("core.affected", "repro.core.affected:AffectedLocationAnalysis.compute"),
    ("symexec.explore", "repro.symexec.engine:SymbolicExecutor.run"),
    ("symexec.pc_dedup", "repro.symexec.summary:MethodSummary.distinct_path_conditions"),
    ("symexec.cache_lookup", "repro.symexec.summary_cache:SummaryCache.lookup"),
    ("symexec.cache_store", "repro.symexec.summary_cache:SummaryCache.store"),
    ("cfg.hash", "repro.cfg.region_hash:RegionHashIndex.signature"),
    ("cfg.hash", "repro.cfg.region_hash:RegionHashIndex.segment"),
    ("cfg.build", "repro.cfg.builder:build_cfg"),
    # ``compute_post_dominance`` only constructs a PostDominance; the engine
    # and region hashing construct it directly.
    ("cfg.postdom", "repro.cfg.dominance:PostDominance.__init__"),
    ("lang.parse", "repro.lang.parser:parse_program"),
    ("diff.diff", "repro.diff.ast_diff:diff_program"),
    ("diff.diff", "repro.diff.diff_map:build_program_diff_map"),
    ("parallel.store_load", "repro.parallel.store:PersistentSummaryStore.load_into"),
    ("parallel.store_load", "repro.parallel.store:PersistentSummaryStore.load_cost_model_into"),
    ("parallel.store_dump", "repro.parallel.store:PersistentSummaryStore.dump"),
    ("parallel.pool", "repro.parallel.shard:prewarm_full"),
    ("parallel.pool", "repro.parallel.shard:prewarm_directed"),
)

#: Structural spans: they frame the trace (one per history, directed run and
#: full run) but are no layer; their self time counts as unattributed.
FRAME_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("frame.history", "repro.evolution.history:VersionHistoryRunner.run"),
    ("frame.directed", "repro.core.dise:DiSE.run"),
    ("frame.full", "repro.symexec.engine:symbolic_execute"),
)

#: Name of the root span framing one timed sweep.
ROOT = "frame.sweep"

#: Attribute set on every installed wrapper (to the layer it records).
MARK = "__perfbench_layer__"


def resolve(target: str) -> List[Tuple[object, str, object]]:
    """Every ``(owner, attribute, original)`` binding a target names."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".", 1)
        owner = getattr(module, class_name)
        return [(owner, attr, vars(owner)[attr])]
    original = getattr(module, qualname)
    bindings = []
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                bindings.append((loaded, attr, original))
    return bindings


class Patcher:
    """Replaces targets with wrappers and puts every original back."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def install(self, targets: Iterable[Tuple[str, str]], make_wrapper) -> None:
        """Wrap each target with ``make_wrapper(layer, original)``."""
        for layer, target in targets:
            bindings = resolve(target)
            if not bindings:
                raise LookupError(f"nothing binds {target}")
            wrapper = make_wrapper(layer, bindings[0][2])
            setattr(wrapper, MARK, layer)
            for owner, attr, original in bindings:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


class Tracer(Patcher):
    """Records one span per wrapped call; see the module docstring.

    ``spans`` holds ``(layer, index, parent index or -1, start, end, sweep)``
    tuples in completion order.  ``sweep`` is the id given to :meth:`sweep`;
    every span of one timed sweep shares it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: List[Tuple[str, int, int, float, float, int]] = []
        self._open: List[Tuple[str, int, int, float]] = []
        #: (sweep, layer) -> top-level calls that returned something other
        #: than None (for ``SummaryCache.lookup``: the hits).
        self.answered: Dict[Tuple[int, str], int] = {}
        self._count = 0
        self._sweep = -1

    def install_layers(self, targets: Iterable[Tuple[str, str]] = LAYER_TARGETS + FRAME_TARGETS):
        self.install(targets, self.wrap)

    def wrap(self, layer: str, function):
        """A wrapper recording one span of ``layer`` per call of ``function``."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer._open and tracer._open[-1][0] == layer:
                return function(*args, **kwargs)
            tracer._enter(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit()
            if result is not None:
                key = (tracer._sweep, layer)
                tracer.answered[key] = tracer.answered.get(key, 0) + 1
            return result

        return wrapper

    def _enter(self, layer: str) -> None:
        parent = self._open[-1][1] if self._open else -1
        self._open.append((layer, self._count, parent, self.clock()))
        self._count += 1

    def _exit(self) -> None:
        end = self.clock()
        layer, index, parent, start = self._open.pop()
        self.spans.append((layer, index, parent, start, end, self._sweep))

    @contextlib.contextmanager
    def sweep(self, sweep_id: int):
        """Frame one timed sweep as a root span; its spans carry ``sweep_id``."""
        self._sweep = sweep_id
        self._enter(ROOT)
        try:
            yield
        finally:
            self._exit()
            self._sweep = -1

    # -- analysis --------------------------------------------------------------

    def self_times(self, sweep_id: int) -> Dict[str, Tuple[float, int]]:
        """Layer -> (self seconds, spans) over the spans of one sweep."""
        child_time: Dict[int, float] = {}
        mine = [span for span in self.spans if span[5] == sweep_id]
        for _, _, parent, start, end, _ in mine:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Dict[str, Tuple[float, int]] = {}
        for layer, index, _, start, end, _ in mine:
            seconds, calls = totals.get(layer, (0.0, 0))
            totals[layer] = (seconds + (end - start) - child_time.get(index, 0.0), calls + 1)
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for layer, index, parent, start, end, sweep in self.spans:
                record = {
                    "name": layer,
                    "id": index,
                    "parent": parent,
                    "sweep": sweep,
                    "start": start,
                    "end": end,
                }
                handle.write(json.dumps(record) + "\n")

