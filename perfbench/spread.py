#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, judged against BENCHMARK.json.

Runs the benchmark command once per seed on each named workload and prints,
per end-to-end metric, the median of the runs and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of that
median, next to the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --workloads train offline zoo --seeds 1 2 3 4 5

It exits non-zero if a run fails or a spread (other than setup_s's) reaches
a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last)
            if p.returncode != 0 or not result.get("correct"):
                sys.stderr.write(p.stderr)
                print(f"{w} seed {seed}: FAILED (exit {p.returncode})")
                steady = False
                continue
            runs.append(result["metrics"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and not share < bound / 3:
                flag = "  <-- spread not below a third of the bound"
                steady = False
            shown = f"{bound}" if bound is not None else "-"
            print(f"  {name:40s} median {statistics.median(values):<14.6g} spread {share:8.4f}  bound {shown}{flag}")
        print()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
