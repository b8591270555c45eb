#!/usr/bin/env python3
"""Measure how the host's own speed drifts, independent of the benchmark.

Times a fixed pure-Python loop back to back for ``--seconds`` (default
300), then treats the record as if it had been cut into benchmark runs
of T seconds each: for every T it takes ten consecutive T-second windows
as one "set of ten runs", reports each window's mean loop time, and
prints the spread of such sets (distance between the first and third
quartile of the ten, ``statistics.quantiles(n=4)``, over their median) at
the median, the 90th percentile and the maximum over all sets in the
record. Run it alone, with nothing else busy:

    python3 perfbench/drift.py --seconds 1200 --out perfbench/results/drift.json

The figures are the spread the host alone would give a set of ten runs
of a program whose speed never changed: the floor under the benchmark's
own spread, and, in the widest sets, how often the host alone would push
a set past a bound.
"""

import argparse
import json
import statistics
import time

WINDOWS = (2, 3, 5, 10, 15, 20, 30)


def kernel():
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=300.0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    start = time.perf_counter()
    samples = []
    while time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        kernel()
        samples.append((t0 - start, time.perf_counter() - t0))

    summary = {}
    for T in WINDOWS:
        buckets = {}
        for at, secs in samples:
            buckets.setdefault(int(at // T), []).append(secs)
        means = [statistics.mean(v) for _, v in sorted(buckets.items()) if len(v) > 5]
        spreads = sorted(spread(means[i:i + 10]) for i in range(len(means) - 9))
        if not spreads:
            continue
        summary[T] = {
            "sets": len(spreads),
            "spread_p50": spreads[len(spreads) // 2],
            "spread_p90": spreads[9 * len(spreads) // 10],
            "spread_max": spreads[-1],
        }
        print(f"T = {T:2d} s: {len(spreads):3d} sets of ten, spread "
              f"p50 {summary[T]['spread_p50']:.3f}  p90 {summary[T]['spread_p90']:.3f}  "
              f"max {summary[T]['spread_max']:.3f}")
    if args.out:
        secs = [s for _, s in samples]
        with open(args.out, "w") as f:
            json.dump({"started_utc": started_utc,
                       "seconds": args.seconds, "loops": len(samples),
                       "loop_s": {"min": min(secs), "median": statistics.median(secs),
                                  "max": max(secs)},
                       "by_run_seconds": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
