#!/usr/bin/env python3
"""Measure how steady the benchmark is on this machine.

Run from the repository root:

    python3 rvbench/steadiness.py --runs 10 --first-seed 1
    python3 rvbench/steadiness.py --workloads resweep_pool --runs 5
    python3 rvbench/steadiness.py --repeat-seed 7      # sentinels repeat?

Runs the command in BENCHMARK.json once per seed and workload (untraced)
and prints, per end-to-end metric, the median, the quartiles, and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. With --repeat-seed it instead runs that seed twice per
workload and checks that the sentinel line repeats exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed, trace=0):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--repeat-seed", type=int)
    ap.add_argument("--out", help="append every raw result line to this file")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    if args.repeat_seed is not None:
        same = True
        for w in names:
            a, _ = run(bench, w, args.repeat_seed)
            b, _ = run(bench, w, args.repeat_seed)
            ok = a["sentinels"] == b["sentinels"]
            same &= ok
            print(f"{w}: sentinels {'repeat' if ok else 'DIFFER'}: {a['sentinels']}")
        return 0 if same else 1

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in names:
        values = {m: [] for m in bounds}
        steal = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            side, result = run(bench, w, seed)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"side": side, "result": result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: NOT CORRECT: {result}")
                steady = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            prov = side["provenance"]
            steal.append(prov["steal_ticks"] / max(prov["window_ticks"], 1))
        print(f"{w}: {args.runs} runs, steal share of window ticks "
              f"median {statistics.median(steal):.3f} max {max(steal):.3f}")
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            mark = "ok" if spread < bounds[m] / 3 else ("WIDE" if spread < bounds[m] else "OVER")
            if m != "setup_s" and spread >= bounds[m]:
                steady = False
            print(f"  {m:18s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f}  bound {bounds[m]:.2f}  {mark}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
