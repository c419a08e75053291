"""The service phase of a workload: neoverify --serve with its defaults
(4 workers, 1 s heartbeat, default checkpoint cadence) on a unix socket,
driven by one closed-loop client through neoverify's client verbs.

Each round submits german and NeoMESI closed (N=6 on the paper workload,
N=5 on the small one) and every corpus mutant, in an order drawn from
the seed, one job outstanding at a time. Verified jobs must match the
sequential explorer's counts (computed in process by neobench,
untimed); each mutant must be INVARIANT VIOLATED naming the
invariant mutantRegistry() declares for it.

Hygiene: the coordinator runs in its own session with TMPDIR pointed into
the run's directory; this process becomes a child subreaper, so workers
orphaned by a crash are reparented here. However the run ends, the
coordinator's process group is killed, every child is reaped, and the
socket and state directory are removed.
"""

import contextlib
import ctypes
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

PR_SET_CHILD_SUBREAPER = 36
VERDICT = re.compile(
    r"^job (\d+) ([A-Z][A-Z ()a-z]*?): states=(\d+) transitions=(\d+) "
    r"invchecks=(\d+) seconds=(\S+)(?: violated=(\S+))?")
GERMAN_MUTANT = "german_grant_E_with_sharers"


class Tracer:
    """Spans (name, start, end, parent, group) kept in memory and written
    at the end; group is the job id, so one job's spans share it."""

    def __init__(self, on):
        self.on = on
        self.spans = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name, group):
        """Time the block; yields a dict whose "seconds" is set on exit."""
        timing = {"seconds": 0.0}
        start = time.monotonic()
        rec = None
        if self.on:
            rec = {"id": len(self.spans), "name": name, "start": start,
                   "end": None,
                   "parent": self.stack[-1] if self.stack else -1,
                   "group": group}
            self.spans.append(rec)
            self.stack.append(rec["id"])
        try:
            yield timing
        finally:
            end = time.monotonic()
            timing["seconds"] = end - start
            if rec is not None:
                rec["end"] = end
                self.stack.pop()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": []}, f, indent=0)


class Campaign:
    def __init__(self, neoverify, workdir, deadline):
        self.neoverify = neoverify
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, TMPDIR=workdir)
        self.coord = None
        self.rusage = None
        self.log = None

    def remaining(self):
        return max(1.0, self.deadline - time.monotonic())

    def client(self, *args):
        """One neoverify client invocation against the coordinator."""
        p = subprocess.run([self.neoverify, "--sock", "s.sock"] + list(args),
                           cwd=self.workdir, env=self.env, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=self.remaining())
        return p.returncode, p.stdout, p.stderr

    def start(self):
        """Spawn the coordinator; return seconds until its socket
        accepts a connection."""
        self.log = open(os.path.join(self.workdir, "coordinator.log"), "w")
        sock_path = os.path.relpath(os.path.join(self.workdir, "s.sock"))
        t0 = time.monotonic()
        self.coord = subprocess.Popen(
            [self.neoverify, "--serve", "s.sock", "--state-dir", "state",
             "--workers", "4"],
            cwd=self.workdir, env=self.env, stdout=self.log,
            stderr=subprocess.STDOUT, start_new_session=True)
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(sock_path)
                return time.monotonic() - t0
            except OSError:
                if self.coord.poll() is not None:
                    raise RuntimeError("coordinator exited with %d at "
                                       "start" % self.coord.returncode)
                if time.monotonic() - t0 > 30:
                    raise RuntimeError("coordinator socket never accepted")
                # Poll finely: the wait is about 2 ms, so a coarse step
                # would show in it.
                time.sleep(0.00005)
            finally:
                s.close()

    def drain(self):
        """Ask the coordinator to exit and reap it, keeping the rusage of
        it and every worker it reaped."""
        rc, _, err = self.client("--drain")
        if rc != 0:
            raise RuntimeError("--drain failed: " + err.strip())
        end = time.monotonic() + 30
        while time.monotonic() < end:
            pid, status, ru = os.wait4(self.coord.pid, os.WNOHANG)
            if pid == self.coord.pid:
                self.coord.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = ru
                return
            time.sleep(0.01)
        raise RuntimeError("coordinator did not exit after --drain")

    def cleanup(self):
        """Kill whatever is left of the coordinator's process group, reap
        every child (orphaned workers included) and remove all files."""
        if self.coord is not None:
            try:
                os.killpg(self.coord.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            if self.coord.returncode is None:
                try:
                    self.coord.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    pass
        end = time.monotonic() + 30
        while time.monotonic() < end:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                if self.coord is None or not _group_alive(self.coord.pid):
                    break
                time.sleep(0.01)
        if self.log is not None:
            self.log.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def _become_subreaper():
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _jobs(ref, inject):
    """The round's jobs: (kind, name, submit args, expectation)."""
    jobs = []
    for v in ref["verified"]:
        args = ["--features", v["features"], "--system", v["system"],
                "--n", str(v["n"])]
        expect = dict(v)
        if inject == "mutant" and v["name"] == "german":
            args = ["--mutant", GERMAN_MUTANT]
        if inject == "count" and v["name"] == "german":
            expect["states"] += 1
        jobs.append(("verified", v["name"], args, expect))
    for m in ref["mutants"]:
        jobs.append(("mutant", m["name"], ["--mutant", m["name"]], m))
    return jobs


def _check(kind, name, verdict, expect, errors):
    if verdict is None:
        errors.append("%s: no verdict" % name)
        return
    status, states, transitions, invchecks, _, violated = verdict
    if kind == "verified":
        got = (status, states, transitions, invchecks)
        want = ("VERIFIED", expect["states"], expect["transitions"],
                expect["invchecks"])
        if got != want:
            errors.append("%s: service %s, sequential explorer %s"
                          % (name, got, want))
    elif status != "INVARIANT VIOLATED" or violated != expect["violates"]:
        errors.append("%s: %s naming %s, expected INVARIANT VIOLATED "
                      "naming %s" % (name, status, violated,
                                     expect["violates"]))


def run(neobench, neoverify, out_dir, args, seconds, deadline):
    """Run the phase for about @p seconds in whole rounds; return its
    result (the benchmark's result line, as a dict)."""
    trace = args.trace == 1
    errors = []
    ref_cmd = [neobench, "--phase", "service-reference", "--workload",
               args.workload, "--trace", str(args.trace)]
    p = subprocess.run(ref_cmd, stdout=subprocess.PIPE, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        print("perfbench: CHECK FAILED: service reference exited %d"
              % p.returncode, file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}}
    ref = json.loads(lines[-1])
    for v in ref["verified"]:
        if v["status"] != "VERIFIED":
            errors.append("sequential explorer: %s %s" % (v["name"],
                                                          v["status"]))
    jobs = _jobs(ref, args.inject)
    rng = random.Random(args.seed)

    tracer = Tracer(trace)
    untraced = Tracer(False)
    _become_subreaper()
    workdir = os.path.join(out_dir, "svc-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    camp = Campaign(neoverify, workdir, deadline)
    attempted = failed = 0
    lat = {"verified": [], "mutant": []}
    rounds = []  # campaign seconds, one per round
    submit_ms, status_ms = [], []
    attempt_s = {}
    traced_lat = {}
    states_total = 0
    journal_bytes = 0
    try:
        with tracer.span("coordinator.start", 0):
            setup_s = camp.start()
        # Whole rounds until the run length is used. A traced run makes
        # the same untraced rounds and then one traced round, whose time
        # is compared with the untraced median.
        start = time.monotonic()
        while not errors:
            traced = bool(rounds) and time.monotonic() - start >= seconds
            if traced and not trace:
                break
            tr = tracer if traced else untraced
            order = list(jobs)
            rng.shuffle(order)
            first = time.monotonic()
            for kind, name, jargs, expect in order:
                attempted += 1
                with tr.span("job." + name, attempted) as job_span:
                    with tr.span("client.submit", attempted) as sp:
                        rc, out, err = camp.client("--submit", *jargs)
                    m = re.search(r"submitted job (\d+)", out)
                    if rc != 0 or not m:
                        failed += 1
                        errors.append("%s: submit failed: %s"
                                      % (name, err.strip()))
                        break
                    jid = m.group(1)
                    if traced:
                        submit_ms.append(1e3 * sp["seconds"])
                        with tr.span("client.status", attempted) as sp:
                            rc, _, err = camp.client("--status")
                        status_ms.append(1e3 * sp["seconds"])
                    with tr.span("client.wait", attempted):
                        rc, out, err = camp.client("--wait", jid)
                lines = out.strip().splitlines()
                vm = VERDICT.match(lines[-1]) if lines else None
                verdict = None
                if vm:
                    verdict = (vm.group(2), int(vm.group(3)),
                               int(vm.group(4)), int(vm.group(5)),
                               float(vm.group(6)), vm.group(7))
                    states_total += verdict[1]
                else:
                    failed += 1
                _check(kind, name, verdict, expect, errors)
                lat[kind].append(job_span["seconds"])
                if traced and verdict:
                    key = name if kind == "verified" else "mutant"
                    attempt_s.setdefault(key, []).append(verdict[4])
                    if kind == "verified":
                        traced_lat.setdefault(name, []).append(
                            job_span["seconds"])
            rounds.append(time.monotonic() - first)
            if traced:
                break
        journal = os.path.join(workdir, "state", "journal.neoj")
        if os.path.exists(journal):
            journal_bytes = os.path.getsize(journal)
        camp.drain()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        errors.append("service: %s" % e)
    finally:
        camp.cleanup()
    for e in errors:
        print("perfbench: CHECK FAILED: " + e, file=sys.stderr)

    metrics = {}
    correct = not errors
    if correct and not trace:
        ru = camp.rusage
        cpu = ru.ru_utime + ru.ru_stime
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "verified_job_s": {"value": statistics.median(lat["verified"]),
                               "unit": "s"},
            "violated_job_ms": {"value":
                                1e3 * statistics.median(lat["mutant"]),
                                "unit": "ms"},
            "campaign_s": {"value": statistics.median(rounds), "unit": "s"},
            "service_cpu_s_per_mstate": {
                "value": cpu / (states_total / 1e6), "unit": "s"},
        }
    elif correct:
        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}
        put("service.submit_ms", statistics.median(submit_ms), "ms")
        put("service.status_ms", statistics.median(status_ms), "ms")
        for key, vals in sorted(attempt_s.items()):
            put("service.attempt_s." + key, statistics.median(vals), "s")
        for v in ref["verified"]:
            put("service.verdict_wait_s." + v["name"],
                statistics.median(traced_lat[v["name"]]) - v["explore4_s"],
                "s")
        put("service.journal_bytes_per_job", journal_bytes / attempted, "B")
        put("trace.overhead_ratio.service",
            rounds[-1] / statistics.median(rounds[:-1]), "ratio")
        tracer.write(os.path.join(out_dir, "trace-%s-service-seed%d.json"
                                  % (args.workload, args.seed)))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
