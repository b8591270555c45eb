#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and the
distance between the first and third quartile (Python's
``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1-10                # every workload
    python3 perfbench/spread.py --workloads pods_chaos --seeds 1-5
    python3 perfbench/spread.py --trace 1 --seeds 1-3 --out perfbench/results/x.json

``--bin PATH`` runs an already built benchmark binary instead of the
command in BENCHMARK.json (skips cargo's freshness check per run).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    fingerprint = None
    for line in lines[:-1]:
        if line.startswith('{"fingerprint"'):
            fingerprint = json.loads(line)["fingerprint"]
    return result, fingerprint, elapsed


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    # A median of 0 (a per-layer metric that does not apply) has no
    # relative spread.
    return med, q1, q3, (q3 - q1) / med if med else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=0,
                    help="defaults to run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    report = {"started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        values, runs = {}, []
        for seed in parse_seeds(args.seeds):
            result, fingerprint, elapsed = run_once(
                command, workload, seed, seconds, args.trace)
            report.setdefault("fingerprint", fingerprint)
            runs.append({"seed": seed, "elapsed_s": round(elapsed, 2),
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: {elapsed:.1f} s, "
                  f"correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        summary = {}
        print(f"== {workload} ({len(runs)} runs, max {max(r['elapsed_s'] for r in runs)} s)")
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel is not None:
                flag = "ok" if rel <= bound / 3 else ("WIDE" if rel <= bound else "OVER")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": rel}
            shown = "-" if rel is None else f"{rel:.4f}"
            print(f"  {name:36s} median {med:16.6g}  iqr/median {shown:>8}"
                  f"  bound {bound if bound is not None else '-':>5}  {flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
