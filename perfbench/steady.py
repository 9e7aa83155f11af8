#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report, per
end-to-end metric, the median, the quartiles and the spread (distance
between the first and third quartile as a share of the median) against
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workloads recommend,paql,churn,serve]
        [--seeds 1,2,...,10] [--seconds S]

Run it from the root of a source checkout.  The spread of setup_s is
reported but not held to its bound: set-up is bounded only between two
sets of runs, median against median.  The run results are also written to
perfbench/_out/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("perfbench: %s seed %d exited with %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    results = {}
    worst = 0.0
    for w in args.workloads.split(","):
        runs = []
        for s in seeds:
            r = run(w, s, args.seconds)
            runs.append(r)
            print("%s seed %d: attempted %d failed %d correct %s" %
                  (w, s, r["attempted"], r["failed"], r["correct"]), file=sys.stderr)
        results[w] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: %d runs, failed share %s, all correct: %s" %
              (w, len(runs), ", ".join("%.6f" % x for x in shares),
               all(r["correct"] for r in runs)))
        print("  %-16s %12s %12s %12s %8s %6s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "ratio"))
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, ratio)
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %6.2f %6.2f%s" %
                  (m["name"], q1, med, q3, spread, m["bound"], ratio,
                   "" if m["name"] == "setup_s" or ratio <= 1 else "  OUT OF BOUND"))
    os.makedirs("perfbench/_out", exist_ok=True)
    with open("perfbench/_out/steady.json", "w") as f:
        json.dump(results, f, indent=1)
    print("\nlargest spread/bound (setup_s excluded): %.2f" % worst)


if __name__ == "__main__":
    main()
