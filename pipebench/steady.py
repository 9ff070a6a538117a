#!/usr/bin/env python3
"""Steadiness check for pipebench.

Runs one workload N times, each with another seed, and prints for every
metric its median, first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the quartile spread
and the full range as shares of the median, next to the metric's bound
from BENCHMARK.json.

Run from the root of the repository:

    python3 pipebench/steady.py --workload exec_warm --runs 10
    python3 pipebench/steady.py --workload compile_large --runs 5 --trace 1

Exits non-zero if a run fails or reports ``correct: false``, or if an
end-to-end spread reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} reported correct=false")
    return result, elapsed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        result, elapsed = run_once(spec["command"], args.workload, seed, args.seconds, args.trace)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in list(result["metrics"].items())[:8])
        print(f"seed {seed}: {elapsed:.1f} s, attempted {result['attempted']} "
              f"failed {result['failed']} {shown}",
              file=sys.stderr, flush=True)

    print(f"{args.workload}, {args.runs} runs, trace={args.trace}")
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    unsteady = []
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        width = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if args.trace == 0 and bound is not None and spread >= bound / 3:
            flag = "  <-- spread >= bound/3"
            unsteady.append(name)
        print(f"{name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {width:>9.4f} {bound if bound is not None else '-':>6}"
              f" {units[name]}{flag}")
    if unsteady:
        raise SystemExit("unsteady: " + ", ".join(unsteady))


if __name__ == "__main__":
    main()
