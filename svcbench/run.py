#!/usr/bin/env python3
"""Builds the query-service benchmark from this checkout's sources and runs
one workload.

    python3 svcbench/run.py --workload selective_repeat --seed 1 \
        --seconds 20 --trace 0

The program and the svcbench binary are compiled from src/ and svcbench/src/ into
.bench_build/ at the root of the checkout (never from an existing build/
tree). The binary's JSON result line is forwarded as the last line of
standard output after its metric names and units are checked against
BENCHMARK.json. Exits non-zero when the build fails, an output check fails,
or the result does not match BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "svcbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "svcbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"svcbench: build failed: {e}", file=sys.stderr)
        return 2
    proc = subprocess.Popen([binary] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"svcbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    want = expected_metrics(trace)
    if want is not None:
        metrics = json.loads(lines[-1])["metrics"]
        got = {k: v["unit"] for k, v in metrics.items()}
        if got != want:
            print(f"svcbench: metrics {sorted(got.items())} do not match "
                  f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
            return 4
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
