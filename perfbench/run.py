#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the repository's src/ and
tools/neoverify.cpp with perfbench/CMakeLists.txt (into $CARGO_TARGET_DIR,
default .bench_build). A workload (paper or small: the instance sizes)
runs three phases in turn, each in whole rounds for its share of about S
seconds: the in-process checks (verify), the verification service
(service) and the simulator (sim). It checks every output and prints one
JSON object as the last line of stdout: {"correct", "attempted",
"failed", "metrics"}. --trace 0 gives the end-to-end metrics, --trace 1
the per-layer ones from a traced round of each phase (spans land in
.bench_out/). Exit status 0 means every check held. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# Leave no bytecode cache in the checkout.
sys.dont_write_bytecode = True

WORKLOADS = ("paper", "small")
# Each phase's share of --seconds. A phase ends with a whole round, so
# it runs somewhat past its share; the verify phase also makes at least
# three rounds. The check times of the verify phase vary most from round
# to round, so it gets the largest share.
PHASES = (("verify", 0.6), ("service", 0.3), ("sim", 0.1))
INJECT = ("mutant", "nsmesi", "count")
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the binaries up to date. Compiler
    output goes to stderr so stdout ends with the result line."""
    for need in ("src/verif/explorer.hpp", "tools/neoverify.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("no %s next to perfbench/: run from a checkout of the "
                 "repository" % need)
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "neobench"), os.path.join(bdir, "neoverify")


def run_in_process(neobench, phase, seconds, args, out_dir, deadline):
    """Run one neobench phase; its last stdout line is the result."""
    cmd = [neobench, "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--out", out_dir]
    if args.inject:
        cmd += ["--inject", args.inject]
    # Set-up time starts at the spawn, so it covers loading the program.
    # time.monotonic() and neobench's steady_clock read CLOCK_MONOTONIC.
    cmd += ["--started-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s %s did not finish within %d s" % (args.workload, phase,
                                                   RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    if not lines:
        fail("neobench %s printed no result (exit %d)" % (
            phase, proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        result["correct"] = False
    return result


def merge(results):
    """One result from the phases': counts add up, set-up times add up
    (each phase's set-up is cold, in a process of its own), and every
    other metric comes from exactly one phase."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for r in results:
        out["correct"] = out["correct"] and r["correct"]
        out["attempted"] += r["attempted"]
        out["failed"] += r["failed"]
        for name, m in r["metrics"].items():
            if name == "setup_s" and name in out["metrics"]:
                out["metrics"][name]["value"] += m["value"]
            elif name in out["metrics"]:
                fail("two phases report %s" % name)
            else:
                out["metrics"][name] = dict(m)
    return out


def check_manifest(result, trace):
    """A correct result must carry exactly the metrics BENCHMARK.json
    lists for the mode (end-to-end untraced, per-layer traced), each in
    its unit; otherwise the run is marked wrong."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    if not result["correct"]:
        return
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            print("perfbench: CHECK FAILED: metric %s: unit %s, "
                  "BENCHMARK.json lists %s"
                  % (name, got.get(name), want.get(name)), file=sys.stderr)
            result["correct"] = False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject", choices=INJECT,
                    help="deliberately wrong input, for the benchmark's "
                         "own tests: the run must fail its checks")
    args = ap.parse_args()

    neobench, neoverify = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    # Every phase runs even after one has failed, so a wrong input shows
    # every check it breaks.
    results = []
    for phase, share in PHASES:
        seconds = share * args.seconds
        if phase == "service":
            import service
            results.append(service.run(neobench, neoverify, out_dir, args,
                                       seconds, deadline))
        else:
            results.append(run_in_process(neobench, phase, seconds, args,
                                          out_dir, deadline))
    result = merge(results)
    check_manifest(result, args.trace)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
