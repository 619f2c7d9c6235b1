#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every workload of BENCHMARK.json (or those named) once per seed and
prints, for each end-to-end metric, the median of the runs and the
interquartile range as a share of that median, beside the metric's
bound, the same statistic the acceptance check uses. Run from the
repository root:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-5 --workloads suite,daemon

Raw results are appended to .bench_build/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n in names]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(".bench_build", exist_ok=True)
    log = open(os.path.join(".bench_build", "steadiness.jsonl"), "a")
    values = {}
    for name in names:
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last:
                sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(last)
            log.write(json.dumps({"workload": name, "seed": seed, "result": res}) + "\n")
            log.flush()
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: output check failed")
            for metric, v in res["metrics"].items():
                values.setdefault((name, metric), []).append(v["value"])
            print(f"{name} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)

    print(f"\n{'workload':10} {'metric':13} {'median':>10} {'IQR/median':>11} {'bound':>6}  n")
    for (name, metric), vs in values.items():
        med = statistics.median(vs)
        if len(vs) < 2:
            print(f"{name:10} {metric:13} {med:10.4f} {'-':>11} {bounds[metric]:6.2f}  {len(vs)}")
            continue
        q = statistics.quantiles(vs, n=4)
        share = (q[2] - q[0]) / med if med else float("inf")
        print(f"{name:10} {metric:13} {med:10.4f} {100 * share:10.1f}% {bounds[metric]:6.2f}  {len(vs)}")


if __name__ == "__main__":
    main()
