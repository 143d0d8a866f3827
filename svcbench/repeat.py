#!/usr/bin/env python3
"""Runs one or more workloads N times, each with another seed, and prints
each end-to-end metric's median, quartiles and spread (quartile distance
over median) next to its bound in BENCHMARK.json. The bounds are set from
this output.

    python3 svcbench/repeat.py --workloads selective_repeat heavy_stream \
        --runs 10 --first-seed 1 [--seconds 20] [--trace 0]

Runs are sequential, never concurrent, so they do not disturb each other.
Exits non-zero if any run fails or reports "correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads:
        values, fail_shares = {}, []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            fail_shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        print(f"\n{workload}: {len(fail_shares)} runs, failed shares "
              f"{sorted(set(fail_shares))}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
