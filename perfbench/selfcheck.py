#!/usr/bin/env python3
"""Self-check of the benchmark itself. Run from the repository root:

    python3 perfbench/selfcheck.py

For every workload it checks that:
  * two seeds both pass their output checks (exit 0, correct, failed 0);
  * the second seed changes the simulated metrics but not the set of
    metric names and units;
  * every name the command prints is declared in BENCHMARK.json with
    the same unit, untraced (end_to_end) and traced (per_layer);
  * the traced run's top-level layer spans cover >= 95% of each pass.
Finally it checks that the command fails, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

SIMULATED = ("rejection_pct", "imbalance_cv", "goodput_pct")
SCRATCH = ".bench_selfcheck"


def fail(msg):
    print(f"selfcheck: FAIL {msg}")
    sys.exit(1)


def run(command, workload, seed, trace, cwd=None):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(args, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def result_of(proc, what):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        fail(f"{what}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{what}: correct={result['correct']} failed={result['failed']}")
    return result


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in (w["name"] for w in bench["workloads"]):
        a = result_of(run(command, w, 1, 0), f"{w} seed 1")
        b = result_of(run(command, w, 2, 0), f"{w} seed 2")
        if units(a) != e2e:
            fail(f"{w}: printed {units(a)}, declared {e2e}")
        if units(b) != units(a):
            fail(f"{w}: seed 2 changed the metric names or units")
        if all(a["metrics"][m]["value"] == b["metrics"][m]["value"] for m in SIMULATED):
            fail(f"{w}: seed 2 left every simulated metric unchanged")
        if any(v["value"] == 0 for v in a["metrics"].values()):
            fail(f"{w}: an end-to-end metric is 0")
        t = result_of(run(command, w, 1, 1), f"{w} traced")
        if units(t) != layers:
            extra = set(units(t)) ^ set(layers)
            fail(f"{w}: traced names/units differ from per_layer ({sorted(extra)})")
        coverage = t["metrics"]["telemetry.span_coverage_pct"]["value"]
        if coverage < 95.0:
            fail(f"{w}: top-level spans cover {coverage:.2f}% of a pass")
        print(f"selfcheck: {w} ok (span coverage {coverage:.2f}%)")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        shutil.copy("BENCHMARK.json", SCRATCH)
        for path in bench["paths"]:
            shutil.copytree(path, os.path.join(SCRATCH, path),
                            ignore=shutil.ignore_patterns("target"))
        proc = run(command, bench["workloads"][0]["name"], 1, 0, cwd=SCRATCH)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("the command succeeded without the repository's sources")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selfcheck: bare benchmark directory fails as expected")
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
