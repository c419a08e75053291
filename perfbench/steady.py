#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and compare each metric's
spread with its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
                                [--first-seed 1]

Run it from the repository root. Each run gets its own seed (first-seed,
first-seed+1, ...) and BENCHMARK.json's run_seconds. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (Q3 - Q1) / median next to the metric's bound, and the
share of failed operations. The exit status is 1 when a run fails or a
spread exceeds its bound. Spreads above a third of the bound are flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bad = False
    for wl in args.workload or names:
        values, shares = {}, []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds",
                                      str(bench["run_seconds"]),
                                      "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else None
            if p.returncode != 0 or res is None or not res["correct"]:
                print("%s seed %d: run failed (exit %d)"
                      % (wl, seed, p.returncode))
                bad = True
                continue
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s: %d runs, failed share %s" % (
            wl, len(shares), sorted(set(shares))))
        print("%-20s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, bad = " OVER", True
                elif spread > bound / 3:
                    flag = " >1/3"
            print("%-20s %14.6g %14.6g %14.6g %8.4f %6s%s" % (
                name, med, q1, q3, spread,
                "-" if bound is None else bound, flag))
        sys.stdout.flush()
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
