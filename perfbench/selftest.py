#!/usr/bin/env python3
"""Tests of the benchmark itself: each correctness check must be able to
fail, and a run must clean up after itself.

    python3 perfbench/selftest.py

Run it from the repository root. Each case runs the small workload, as
short as it goes, with a deliberately wrong input (run.py --inject) and
expects a non-zero exit, every named check in stderr and no result with
"correct": true. Every phase runs even after one has failed, so one run
shows the checks of all three:

  - mutant: a corpus mutant stands in for german, so the verify phase's
    verdict check and the service phase's count check fail;
  - count: one count of the 4-thread explorer and one of the service's
    reference are perturbed, so both cross-engine comparisons fail;
  - nsmesi: the sim phase simulates NS-MESI, whose non-sibling
    forwarding the NeoMESI check refuses.

It also runs the benchmark in a directory that holds only BENCHMARK.json
and perfbench/, where it must fail without printing a result, and checks
that no service directory or benchmark process outlives a run.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = [
    ("mutant", ["german: verdict INVARIANT VIOLATED",
                "german: service ('INVARIANT VIOLATED'"]),
    ("count", ["(4 threads vs sequential): run 0: states",
               "german: service ('VERIFIED'"]),
    ("nsmesi", ["non-sibling data transfers"]),
]


def leftovers():
    out = os.path.join(ROOT, ".bench_out")
    dirs = [d for d in os.listdir(out) if d.startswith("svc-")] \
        if os.path.isdir(out) else []
    procs = subprocess.run(["pgrep", "-f", "neoverify --serve s.sock"],
                           stdout=subprocess.PIPE, text=True).stdout.split()
    return dirs, procs


def run_case(inject, needles):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "small", "--seed", "1", "--seconds", "1", "--trace", "0",
           "--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else {}
    problems = []
    if p.returncode == 0:
        problems.append("exit status 0")
    if res.get("correct") is True:
        problems.append("result says correct")
    for needle in needles:
        if needle not in p.stderr:
            problems.append("stderr lacks %r" % needle)
    dirs, procs = leftovers()
    if dirs or procs:
        problems.append("left behind %s %s" % (dirs, procs))
    return problems


def run_bare():
    """The benchmark alone, without the repository's sources."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(bare, "BENCHMARK.json")) as f:
        cmd = json.load(f)["command"]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    try:
        p = subprocess.run(cmd + ["--workload", "small", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                           cwd=bare, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if p.returncode == 0:
        problems.append("exit status 0")
    if p.stdout.strip():
        problems.append("printed %r" % p.stdout.strip()[-80:])
    return problems


def main():
    failures = 0
    for inject, needles in CASES:
        problems = run_case(inject, needles)
        print("%-5s --inject %s%s" % (
            "FAIL" if problems else "ok", inject,
            ": " + "; ".join(problems) if problems else ""))
        failures += bool(problems)
    problems = run_bare()
    print("%-5s benchmark without the repository%s" % (
        "FAIL" if problems else "ok",
        ": " + "; ".join(problems) if problems else ""))
    failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
