#!/usr/bin/env python3
"""Smoke tests of the benchmark, at the workloads' small problem sizes.

    python3 perfbench/test_smoke.py

Run from the root of a checkout; takes about 30 seconds. Checks that
every workload passes its correctness gate in both modes, that each
mode prints every metric BENCHMARK.json names, with its unit, both in
the text and in the final JSON line, that a wrong expected digest fails
every run and the exit code, and that a directory holding only the
benchmark's own files exits with code 2 and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

checks = 0
failures = []


def check(cond, what):
    global checks
    checks += 1
    if not cond:
        print("FAIL  " + what, flush=True)
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--size", "small", *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return p, lines, result


def test_workload(workload, trace):
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    p, lines, r = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    check(p.returncode == 0, f"{tag}: exit code 0 (got {p.returncode})")
    if r is None:
        check(False, f"{tag}: last line is JSON")
        return
    check(set(r) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: JSON keys")
    check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
          f"{tag}: every run correct ({r['failed']}/{r['attempted']} failed)")
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    check(got == want, f"{tag}: metric names and units match BENCHMARK.json")
    text = lines[:-1]
    for name, unit in want.items():
        check(any(l.split()[:1] == [name] and unit in l.split()[2:3]
                  for l in text if l.strip()),
              f"{tag}: text line for {name} with unit {unit}")


def test_wrong_digest():
    p, _, r = run("kv_read", 0, "--expect-digest", "0" * 32)
    check(p.returncode == 1, f"wrong digest: exit code 1 (got {p.returncode})")
    check(r is not None and not r["correct"]
          and r["failed"] == r["attempted"] >= 1,
          "wrong digest: every run counts as failed (fail_ratio 1)")


def test_bare_directory():
    with tempfile.TemporaryDirectory() as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        p, lines, r = run("jacobi8", 0, cwd=d)
        check(p.returncode == 2 and r is None,
              "bare directory: exit code 2, no result printed")


def main():
    for w in BENCH["workloads"]:
        for trace in (0, 1):
            test_workload(w["name"], trace)
    test_wrong_digest()
    test_bare_directory()
    print(f"{checks} checks, {len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
