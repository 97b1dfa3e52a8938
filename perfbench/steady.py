"""Steadiness command: run every workload N times, interleaved, and report spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads store-resume --save a.json
    python3 perfbench/steady.py --runs 10 --against a.json
    python3 perfbench/steady.py --runs 3 --trace

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``--first-seed`` + run index).  The workloads take turns -- one run of
each, then the next round -- so the runs behind each figure are spread over
the whole session instead of taken in one burst: on a shared 2-CPU machine
the speed of identical code drifts by about 20% over tens of seconds.

For each end-to-end metric the command prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance / median) and the metric's bound from
``BENCHMARK.json``; for ``setup_s`` also the spread it would have with a
single set-up round.  ``--against`` also prints how far each median moved
from a saved earlier set.  ``--trace`` runs the traced variant instead and
checks that the serial workloads' counts repeat exactly from run to run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Per-layer counts that must be identical in every traced run of a serial
#: workload (a pool's scheduling depends on timing, so its counts do not).
REPEATED = ("symexec.states", "solver.check_calls", "symexec.cache_hit_ratio")

SETUP_LINE = re.compile(r"perfbench: imports (\[.*\]) s, set-up rounds (\[.*\]) s$")


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    began = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - began
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stdout[-2000:]}{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_wall_s"] = elapsed
    result["seed"] = seed
    # What setup_s would read with one round: this process's import plus the
    # first set-up round.
    for line in lines:
        match = SETUP_LINE.match(line)
        if match:
            result["setup_one_round_s"] = json.loads(match[1])[0] + json.loads(match[2])[0]
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", help="write every run's result to this JSON file")
    parser.add_argument("--against", help="a file written by --save to compare medians with")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {workload: [] for workload in workloads}
    for index in range(args.runs):
        for workload in workloads:
            result = run_once(workload, args.first_seed + index, args.seconds, args.trace)
            results[workload].append(result)
            print(f"run {index + 1}/{args.runs} {workload}: {result['run_wall_s']:.1f}s wall, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as handle:
            earlier = json.load(handle)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        walls = [r["run_wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, failed share {shares}, "
              f"run wall median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        if args.trace:
            if WORKLOADS[workload].workers == 1:
                for name in REPEATED:
                    seen = sorted({r["metrics"][name]["value"] for r in runs})
                    verdict = "repeats" if len(seen) == 1 else "DIFFERS"
                    print(f"  {name:<28} {verdict}: {seen[:4]}")
            continue
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            if len(values) < 2:
                print(f"  {name:<16}{values[0]:>12.5g}")
                continue
            median, q1, q3, relative = spread(values)
            worst = max(worst, relative / bound)
            note = "ok" if relative <= bound / 3 else ("within bound" if relative <= bound else "TOO WIDE")
            if earlier and workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                moved = median / before - 1
                note += f"  median moved {moved:+.1%}" + (" WORSE THAN BOUND" if moved > bound else "")
            print(f"  {name:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{relative:>9.3f}{bound:>7}  {note}")
        one_round = [r["setup_one_round_s"] for r in runs if "setup_one_round_s" in r]
        if len(one_round) == len(runs):
            median, q1, q3, relative = spread(one_round)
            print(f"  {'(1 set-up round)':<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{relative:>9.3f}")
    if not args.trace:
        print(f"\nwidest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
