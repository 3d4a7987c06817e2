#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload jacobi8 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Builds perfbench/perf.exe from source
with dune (inside the checkout's _build, with the shared dune cache off),
then runs it and passes its output through: human-readable lines, then
one JSON object as the last line. The exit code is the benchmark's: 0
when every run was correct, 1 when any failed, 2 on a usage or build
error (then no result is printed).

--size small and --expect-digest exist for the smoke tests
(perfbench/test_smoke.py); a normal run takes the expected digest of the
workload from perfbench/expected.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perf.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", default="large")
    ap.add_argument("--expect-digest")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} is missing: run from the root of a full checkout")

    digest = args.expect_digest
    if digest is None:
        with open(os.path.join(HERE, "expected.json")) as f:
            table = json.load(f)["digests"]
        digest = table.get(args.workload, {}).get(args.size)
        if digest is None:
            die(f"no expected digest for {args.workload} at size {args.size}")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perf.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        die("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--expect-digest", digest]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        die(f"timed out after {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
