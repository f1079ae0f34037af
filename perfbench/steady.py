#!/usr/bin/env python3
"""Measures the run-to-run spread of every metric, to set and re-check bounds.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--workloads a,b]
                                [--first-seed 101] [--trace]

Runs each workload --runs times, each run with its own seed (first-seed,
first-seed + 1, ...), interleaving the workloads and alternating their order
from one pass to the next so that slow stretches of the host are shared out.
Prints, per workload and metric, the median, first and third quartile (as
Python's statistics.quantiles(values, n=4) gives them) and the quartile
spread as a share of the median, next to the metric's bound in
BENCHMARK.json and a third of it. Also prints the share of failed operations
of every run; it must be the same in all of them.

With --drift SECONDS, it only measures the host's own drift: how many
iterations of a fixed loop fit in each 250 ms window, as min / median / max.

With --trace, every run is made twice, untraced and traced on the same seed,
and the relative loss of ops_per_s in the traced run (the tracing overhead)
is printed as well; per-layer medians are printed from the traced runs.

Exit status: 1 if a run failed, if a failed-share differs between runs, or if
a spread (setup_s excepted) exceeds its bound; 0 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=REPO, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-4000:])
        raise RuntimeError(f"{workload} seed {seed} exited with {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("context: "):
            result["context"] = json.loads(line[len("context: "):])
    return result


def drift(seconds):
    windows = []
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        count = 0
        stop = time.monotonic() + 0.25
        while time.monotonic() < stop:
            for _ in range(1000):
                pass
            count += 1
        windows.append(count * 1000)
    q1, med, q3 = quartiles(windows)
    print(f"host drift over {len(windows)} windows of 250 ms: loop iterations per window "
          f"min {min(windows)}, q1 {q1:.0f}, median {med:.0f}, q3 {q3:.0f}, max {max(windows)} "
          f"(max/min {max(windows) / min(windows):.2f})")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--drift", type=float, default=0)
    args = parser.parse_args()
    if args.drift:
        drift(args.drift)
        return 0

    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for workload in order:
            seed = args.first_seed + i
            try:
                results[workload].append(run_once(workload, seed, seconds, 0))
                if args.trace:
                    traced[workload].append(run_once(workload, seed, seconds, 1))
            except RuntimeError as error:
                print(f"run failed: {error}")
                ok = False
        print(f"pass {i + 1}/{args.runs} done", file=sys.stderr)

    for workload in workloads:
        runs = results[workload]
        if not runs:
            continue
        shares = {(r["failed"], r["attempted"]) for r in runs}
        fractions = sorted({f / a for f, a in shares})
        print(f"\n== {workload}: {len(runs)} runs, failed share {fractions} "
              f"(failed/attempted of each run: {sorted(shares)})")
        if len(fractions) != 1:
            print("   FAILED SHARE DIFFERS BETWEEN RUNS")
            ok = False
        print(f"   {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>8}{'bound/3':>9}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            elif spread > bound / 3:
                flag = "  over bound/3"
            print(f"   {name:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}"
                  f"{bound:>8.3f}{bound / 3:>9.4f}{flag}")
        if args.trace and traced[workload]:
            plain = statistics.median(r["context"]["ops_per_s"] for r in runs)
            with_trace = statistics.median(t["context"]["ops_per_s"] for t in traced[workload])
            print(f"   tracing overhead: ops_per_s {plain:.6g} untraced, {with_trace:.6g} "
                  f"traced ({1 - with_trace / plain:+.2%} lost)")
            print("   per-layer medians (traced runs):")
            for name, metric in traced[workload][0]["metrics"].items():
                values = [t["metrics"][name]["value"] for t in traced[workload]]
                print(f"     {name:<30}{statistics.median(values):>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
