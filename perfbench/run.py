"""Run one history-sweep workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solver-sweep --seed 1 --seconds 20 --trace 0

The run sets up ``SETUP_ROUNDS`` times, then runs whole sweeps in a closed
loop until ``--seconds`` have passed (at least one), then checks every
sweep's output untimed.  ``setup_s`` is the median of ``IMPORT_SAMPLES``
import times (this process's own, then fresh interpreters' between the
first sweeps) plus the median set-up round.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the layer
boundaries listed in ``layers.py`` and reports per-layer self times and
counts, averaged per sweep, and writes the spans to
``.perfbench_out/<workload>.spans.jsonl``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``correct`` is false, and the exit code 1, when an output check fails.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Times every workload sets up; ``setup_s`` takes the median round.  On
#: store-resume, whose round is a 5-6 s cold run, the quartile spread of
#: ``setup_s`` over three sets of 10 runs was 0.24, 0.09 and 0.08 with one
#: round, and 0.07, 0.06 and 0.11 with the median of three (README).
SETUP_ROUNDS = 3

#: Import times behind ``setup_s``.  The import (about 0.25 s) is most of
#: the set-up of every workload but store-resume, and this machine's speed
#: drifts over seconds, so samples taken together move together: the median
#: of three back-to-back imports still had a quartile spread of 0.30 over 5
#: solver-sweep runs.  The samples are therefore spread over the run, one
#: after each of the first sweeps (README).
IMPORT_SAMPLES = 5

#: Imports what this process imports before its set-up, in a fresh
#: interpreter, and prints how long that took.
IMPORT_PROBE = (
    "import sys, time; began = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import run, workloads, layers; run.import_program(); "
    "print(time.perf_counter() - began)"
)

#: Layers whose span count is reported too, under these names.  Every layer
#: of ``layers.LAYER_TARGETS`` reports its self time as ``<layer>_s``.
CALL_COUNTS = {
    "solver.check": "solver.check_calls",
    "solver.context": "solver.context_calls",
    "core.lookahead": "core.lookahead_calls",
    "symexec.cache_lookup": "symexec.cache_lookups",
    "symexec.cache_store": "symexec.cache_stores",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` on the path and import the program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit(f"perfbench: no program sources under {source}")
    sys.path.insert(0, source)
    # Fault injection would make runs differ; the benchmark measures none.
    os.environ.pop("REPRO_FAULTS", None)
    import repro.evolution.history  # noqa: F401
    import repro.parallel  # noqa: F401
    from repro import faults

    if faults.active_plan() is not None:
        raise SystemExit("perfbench: a fault-injection plan is active")


def import_seconds() -> float:
    """How long a fresh interpreter takes to import what this process imported."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, HERE],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, sweeps):
    """The run's end-to-end metrics.

    Times are means over the run (summed time divided by sweeps, or by
    directed runs): the machine's speed drifts by about 20% over tens of
    seconds, so a run's few sweeps are correlated samples, and a mean over
    all of the run's measured time is steadier than any one sample.
    """
    from workloads import peak_rss_mb

    directed = [v.directed_seconds for s in sweeps for v in s.versions if v.error is None]
    print(
        f"perfbench: {len(sweeps)} sweeps of {len(sweeps[0].versions)} versions, "
        f"wall s {[round(s.wall, 3) for s in sweeps]}; "
        f"directed_mean_s over {len(directed)} directed runs"
    )
    return {
        "setup_s": metric(setup_s, "s"),
        "sweep_s": metric(statistics.fmean(s.wall for s in sweeps), "s"),
        "sweep_cpu_s": metric(statistics.fmean(s.cpu for s in sweeps), "s"),
        "directed_mean_s": metric(statistics.fmean(directed) if directed else 0.0, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def per_layer(tracer, sweeps):
    """Per-sweep means of each layer's self time and counts."""
    from layers import LAYER_TARGETS, ROOT as SWEEP_SPAN

    totals = {}
    for sweep_id, sweep in enumerate(sweeps):
        times = tracer.self_times(sweep_id)
        row = {}
        named = 0.0
        for layer in dict.fromkeys(layer for layer, _ in LAYER_TARGETS):
            seconds, calls = times.get(layer, (0.0, 0))
            row[f"{layer}_s"] = seconds
            named += seconds
            if layer in CALL_COUNTS:
                row[CALL_COUNTS[layer]] = calls
        traced = sum(end - start for name, _, _, start, end, sid in tracer.spans
                     if sid == sweep_id and name == SWEEP_SPAN)
        row["traced.sweep_s"] = traced
        row["unattributed_s"] = traced - named
        lookups = times.get("symexec.cache_lookup", (0.0, 0))[1]
        hits = tracer.answered.get((sweep_id, "symexec.cache_lookup"), 0)
        row["symexec.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        counted = sweep.totals
        row["symexec.states"] = counted.get("states", 0)
        row["symexec.replayed_paths"] = counted.get("replayed_paths", 0)
        loaded = counted.get("store_loaded", 0)
        row["parallel.store_hit_ratio"] = counted.get("store_hits", 0) / loaded if loaded else 0.0
        row["parallel.store_mb"] = sweep.store_bytes / 1e6
        for name in ("shards", "inline", "failed_shards"):
            row[f"parallel.{name}"] = counted.get(name, 0)
        for name, value in row.items():
            totals[name] = totals.get(name, 0.0) + value
    units = {}
    for name in totals:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        elif name.endswith("_mb"):
            units[name] = "MB"
        else:
            units[name] = "count"
    return {name: metric(total / len(sweeps), units[name]) for name, total in sorted(totals.items())}


def result_line(sweeps, failures, metrics) -> dict:
    """The run's JSON result.

    Every entry of ``failures`` is a failed operation.  One whose leg raised
    or degraded (``outcome.error``) produced no output to judge; any other
    failed an output check, and makes the run's output incorrect.
    """
    wrong = [key for key in failures if sweeps[key[0]].versions[key[1]].error is None]
    return {
        "correct": not wrong,
        "attempted": sum(len(s.versions) for s in sweeps),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_program()
    from layers import Tracer
    from workloads import Bench

    imported = time.perf_counter() - STARTED
    work_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    bench = Bench(workload, work_dir, args.seed)
    tracer = None
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            began = time.perf_counter()
            bench.prepare()
            rounds.append(time.perf_counter() - began)

        if args.trace:
            tracer = Tracer()
            tracer.install_layers()
        sweeps = []
        imports = [imported]
        loop_started = time.perf_counter()
        while True:
            sweeps.append(bench.sweep(tracer.sweep(len(sweeps)) if tracer else None))
            if len(imports) < IMPORT_SAMPLES:
                imports.append(import_seconds())
            if time.perf_counter() - loop_started >= args.seconds:
                break
        while len(imports) < IMPORT_SAMPLES:
            imports.append(import_seconds())
        setup_s = statistics.median(imports) + statistics.median(rounds)
        print(f"perfbench: imports {[round(t, 4) for t in imports]} s, "
              f"set-up rounds {[round(r, 4) for r in rounds]} s")
        if tracer is not None:
            tracer.uninstall()
            metrics = per_layer(tracer, sweeps)
            tracer.dump(os.path.join(OUT_DIR, f"{workload.name}.spans.jsonl"))
        else:
            metrics = end_to_end(setup_s, sweeps)

        failures = bench.check(sweeps)
    finally:
        if tracer is not None:
            tracer.uninstall()
        bench.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    for (sweep_index, op_index), reason in sorted(failures.items()):
        outcome = sweeps[sweep_index].versions[op_index]
        print(f"perfbench: FAILED sweep {sweep_index} {outcome.history} {outcome.version}: {reason}")
    result = result_line(sweeps, failures, metrics)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
